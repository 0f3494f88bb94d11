//! The Table V metric: counting generic vs protocol-specific commands and
//! state variables in configuration scripts.
//!
//! The paper colour-codes each script and counts four quantities per
//! scenario: generic commands, protocol-specific commands, generic state
//! variables and protocol-specific state variables, for "today's" scripts
//! (T) and the CONMan scripts (C).  Here every script line is built from
//! tagged tokens so the counting is mechanical and auditable.

use std::collections::BTreeSet;

/// How a token of a configuration script is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TokenKind {
    /// A command that exists independent of any specific protocol
    /// (`create pipe`, `ip route`, `echo ... > file`).
    GenericCommand,
    /// A command that only makes sense for one protocol
    /// (`ip tunnel add`, `mpls nhlfe add`, `switchport mode dot1q-tunnel`).
    SpecificCommand,
    /// A state variable with protocol-independent meaning (interface names,
    /// module or pipe identifiers, table names, device names).
    GenericVariable,
    /// A protocol-specific state variable (addresses, keys, labels, VLAN
    /// identifiers).
    SpecificVariable,
    /// Punctuation / fixed syntax that the paper does not count.
    Syntax,
}

/// One token of a script line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The literal text.
    pub text: String,
    /// Its classification.
    pub kind: TokenKind,
}

impl Token {
    /// Build a token.
    pub fn new(text: impl Into<String>, kind: TokenKind) -> Self {
        Token {
            text: text.into(),
            kind,
        }
    }
}

/// A script line made of classified tokens.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScriptLine {
    /// The tokens, in order.
    pub tokens: Vec<Token>,
}

impl ScriptLine {
    /// Render the line as plain text.
    pub fn text(&self) -> String {
        self.tokens
            .iter()
            .map(|t| t.text.clone())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A complete classified script (one device's configuration).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassifiedScript {
    /// Scenario label ("GRE today", "MPLS CONMan", ...).
    pub label: String,
    /// The lines.
    pub lines: Vec<ScriptLine>,
}

/// The four counts of Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableVCounts {
    /// Distinct generic commands.
    pub generic_commands: usize,
    /// Distinct protocol-specific commands.
    pub specific_commands: usize,
    /// Distinct generic state variables.
    pub generic_variables: usize,
    /// Distinct protocol-specific state variables.
    pub specific_variables: usize,
}

impl ClassifiedScript {
    /// Create an empty script.
    pub fn new(label: impl Into<String>) -> Self {
        ClassifiedScript {
            label: label.into(),
            lines: Vec::new(),
        }
    }

    /// Append a line built from `(text, kind)` pairs.
    pub fn line(&mut self, tokens: Vec<(&str, TokenKind)>) -> &mut Self {
        self.lines.push(ScriptLine {
            tokens: tokens.into_iter().map(|(t, k)| Token::new(t, k)).collect(),
        });
        self
    }

    /// Render the whole script as plain text.
    pub fn text(&self) -> String {
        self.lines
            .iter()
            .map(|l| l.text())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Count the Table V quantities.  Commands and variables are counted as
    /// *distinct* occurrences (the paper's colour-coding marks the first
    /// occurrence of each).
    pub fn counts(&self) -> TableVCounts {
        let mut seen: BTreeSet<(&str, TokenKind)> = BTreeSet::new();
        let mut c = TableVCounts::default();
        for line in &self.lines {
            for token in &line.tokens {
                if token.kind == TokenKind::Syntax {
                    continue;
                }
                if !seen.insert((token.text.as_str(), token.kind)) {
                    continue;
                }
                match token.kind {
                    TokenKind::GenericCommand => c.generic_commands += 1,
                    TokenKind::SpecificCommand => c.specific_commands += 1,
                    TokenKind::GenericVariable => c.generic_variables += 1,
                    TokenKind::SpecificVariable => c.specific_variables += 1,
                    TokenKind::Syntax => {}
                }
            }
        }
        c
    }
}

/// Classify a rendered CONMan script (the output of the NM's script
/// generator) into Table V counts.
///
/// CONMan scripts only ever contain the two generic commands (`create pipe`
/// and `create switch`); module references, pipe identifiers and trade-off
/// keywords are generic state variables; the named traffic classes and
/// gateways that the NM resolved on the manager's behalf (e.g. `C1-S2`,
/// `S2-gateway`) are counted as protocol-specific, exactly as the paper does.
pub fn classify_conman_script(rendered: &[String]) -> ClassifiedScript {
    let mut script = ClassifiedScript::new("CONMan");
    for line in rendered {
        let mut tokens = Vec::new();
        let cmd = if line.contains("create (pipe") {
            "create pipe"
        } else if line.contains("create (switch") {
            "create switch"
        } else {
            "create"
        };
        tokens.push(Token::new(cmd, TokenKind::GenericCommand));
        // Module references <KIND,dev,mN>.
        let mut rest = line.as_str();
        while let Some(start) = rest.find('<') {
            if let Some(end) = rest[start..].find('>') {
                tokens.push(Token::new(
                    &rest[start..start + end + 1],
                    TokenKind::GenericVariable,
                ));
                rest = &rest[start + end + 1..];
            } else {
                break;
            }
        }
        // Pipe identifiers.
        for word in line
            .split(|c: char| !c.is_alphanumeric() && c != '-' && c != ':')
            .filter(|w| !w.is_empty())
        {
            if word.starts_with('P') && word[1..].chars().all(|c| c.is_ascii_digit()) {
                tokens.push(Token::new(word, TokenKind::GenericVariable));
            }
        }
        // Trade-offs and the None placeholder are generic.
        for key in ["in-order delivery", "error-rate", "low-delay", "None"] {
            if line.contains(key) {
                tokens.push(Token::new(key, TokenKind::GenericVariable));
            }
        }
        // Named classes and gateways the NM resolved: protocol-specific.
        for key in ["C1-S1", "C1-S2", "S1-gateway", "S2-gateway", "Tagged"] {
            if line.contains(key) {
                tokens.push(Token::new(key, TokenKind::SpecificVariable));
            }
        }
        script.lines.push(ScriptLine { tokens });
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_counting() {
        let mut s = ClassifiedScript::new("test");
        s.line(vec![
            ("ip route add", TokenKind::GenericCommand),
            ("10.0.2.0/24", TokenKind::SpecificVariable),
            ("via", TokenKind::Syntax),
            ("204.9.168.2", TokenKind::SpecificVariable),
            ("eth2", TokenKind::GenericVariable),
        ]);
        s.line(vec![
            ("ip route add", TokenKind::GenericCommand),
            ("204.9.169.1", TokenKind::SpecificVariable),
            ("eth2", TokenKind::GenericVariable),
        ]);
        let c = s.counts();
        assert_eq!(c.generic_commands, 1);
        assert_eq!(c.specific_commands, 0);
        assert_eq!(c.generic_variables, 1);
        assert_eq!(c.specific_variables, 3);
        assert!(s.text().contains("ip route add"));
    }

    #[test]
    fn conman_scripts_have_no_specific_commands() {
        let rendered = vec![
            "P0 = create (pipe, <IP,A,m3>, <ETH,A,m1>, None, None, None)".to_string(),
            "P1 = create (pipe, <IP,A,m3>, <GRE,A,m5>, <IP,C,m4>, <GRE,C,m5>, trade-off: in-order delivery, trade-off: error-rate)".to_string(),
            "create (switch, <IP,A,m3>, [P0, dst:C1-S2 => P1])".to_string(),
        ];
        let s = classify_conman_script(&rendered);
        let c = s.counts();
        assert_eq!(c.specific_commands, 0);
        assert_eq!(c.generic_commands, 2); // create pipe, create switch
        assert!(c.generic_variables >= 7);
        assert_eq!(c.specific_variables, 1); // C1-S2
    }
}

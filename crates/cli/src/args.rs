//! Minimal flag parser — no external dependencies.

use std::collections::HashMap;

/// Parsed command line: the positional argument and `--flag [value]`
/// options.
#[derive(Debug, Default)]
pub struct Args {
    positional: Option<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `argv` (after the subcommand) for a subcommand that reads one
    /// positional argument, the value-taking `flags` and the value-less
    /// `switches` (`--help` is a switch of every subcommand). Short
    /// `-q`/`-o` aliases map to `--query`/`--output`. Anything else — an
    /// unknown flag, a second positional — is an error, so a typo such as
    /// `--sample` cannot silently fall back to a default.
    pub fn parse(argv: &[String], flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let a = match a.as_str() {
                "-q" => "--query",
                "-o" => "--output",
                other => other,
            };
            if let Some(name) = a.strip_prefix("--") {
                let value = if name == "help" || switches.contains(&name) {
                    "true".to_string()
                } else if flags.contains(&name) {
                    it.next()
                        .ok_or_else(|| format!("flag --{name} needs a value"))?
                        .clone()
                } else {
                    return Err(format!("unknown flag --{name}"));
                };
                out.flags.insert(name.to_string(), value);
            } else if out.positional.is_none() {
                out.positional = Some(a.to_string());
            } else {
                return Err(format!("unexpected argument '{a}'"));
            }
        }
        Ok(out)
    }

    /// The positional argument.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// String flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Parsed numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    const FLAGS: &[&str] = &["query", "samples", "output"];
    const SWITCHES: &[&str] = &["trawl"];

    fn parse(items: &[&str]) -> Result<Args, String> {
        Args::parse(&sv(items), FLAGS, SWITCHES)
    }

    #[test]
    fn parses_mixed() {
        let a = parse(&["yeast", "-q", "q.txt", "--samples", "500", "--trawl"]).unwrap();
        assert_eq!(a.positional(), Some("yeast"));
        assert_eq!(a.get("query"), Some("q.txt"));
        assert_eq!(a.num::<u64>("samples", 0).unwrap(), 500);
        assert!(a.has("trawl"));
        assert!(!a.has("output"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["--samples"]).is_err());
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse(&["--samples", "xyz"]).unwrap();
        assert!(a.num::<u64>("samples", 0).is_err());
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.num::<u64>("samples", 7).unwrap(), 7);
    }
}

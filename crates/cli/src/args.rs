//! Flag parsing: a deliberately small `--key value` parser (no external
//! argument-parsing crate; the dependency set is fixed by DESIGN.md).

use crate::CliError;
use std::collections::HashMap;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// The subcommand name (`generate`, `index`, `query`, …).
    pub name: String,
    /// `--key value` flags.
    pub flags: HashMap<String, String>,
}

/// Parses `argv` (without the program name) into a [`Command`].
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let mut it = argv.iter();
    let name = it
        .next()
        .ok_or_else(|| CliError::from("missing subcommand; try `graphrep help`"))?
        .clone();
    let mut flags = HashMap::new();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| CliError(format!("expected --flag, got `{a}`")))?;
        let value = it
            .next()
            .ok_or_else(|| CliError(format!("--{key} needs a value")))?;
        if flags.insert(key.to_owned(), value.clone()).is_some() {
            return Err(CliError(format!("--{key} given twice")));
        }
    }
    Ok(Command { name, flags })
}

impl Command {
    /// A required string flag.
    pub fn req(&self, key: &str) -> Result<&str, CliError> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required --{key}")))
    }

    /// An optional string flag.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Rejects any flag not named in `known`.
    pub fn allow_only(&self, known: &[&str]) -> Result<(), CliError> {
        match self.flags.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(CliError(format!(
                "unknown flag --{k} for `{}`; try `graphrep help`",
                self.name
            ))),
            None => Ok(()),
        }
    }

    /// A parsed flag with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{key}: cannot parse `{v}`"))),
        }
    }

    /// A required parsed flag.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let v = self.req(key)?;
        v.parse()
            .map_err(|_| CliError(format!("--{key}: cannot parse `{v}`")))
    }

    /// A comma-separated list of floats.
    pub fn float_list(&self, key: &str) -> Result<Option<Vec<f64>>, CliError> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse::<f64>()
                        .map_err(|_| CliError(format!("--{key}: bad number `{p}`")))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let c = parse(&argv(&["query", "--theta", "4.5", "--k", "10"])).unwrap();
        assert_eq!(c.name, "query");
        assert_eq!(c.req("theta").unwrap(), "4.5");
        assert_eq!(c.parsed::<usize>("k").unwrap(), 10);
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn flag_without_value_errors() {
        assert!(parse(&argv(&["query", "--theta"])).is_err());
    }

    #[test]
    fn positional_after_subcommand_errors() {
        assert!(parse(&argv(&["query", "oops"])).is_err());
    }

    #[test]
    fn duplicate_flag_errors() {
        assert!(parse(&argv(&["q", "--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn defaults_and_lists() {
        let c = parse(&argv(&["x", "--steps", "1, 2.5,3"])).unwrap();
        assert_eq!(c.parsed_or("k", 7usize).unwrap(), 7);
        assert_eq!(c.float_list("steps").unwrap().unwrap(), vec![1.0, 2.5, 3.0]);
        assert_eq!(c.float_list("nope").unwrap(), None);
        assert!(c.opt("steps").is_some());
    }

    #[test]
    fn flags_outside_the_allow_list_are_named_in_the_error() {
        let c = parse(&argv(&["serve", "--data", "d", "--io", "async"])).unwrap();
        assert!(c.allow_only(&["data", "io"]).is_ok());
        let e = c.allow_only(&["data"]).unwrap_err();
        assert!(e.0.contains("--io"), "{}", e.0);
    }

    #[test]
    fn bad_number_in_list_errors() {
        let c = parse(&argv(&["x", "--steps", "1,zzz"])).unwrap();
        assert!(c.float_list("steps").is_err());
    }
}

//! Minimal flag parsing (`--name value` pairs plus `-k`).

use std::collections::HashMap;
use std::fmt;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown command, missing or malformed flag.
    Usage(String),
    /// An I/O or index error while executing a command.
    Run(String),
    /// The output was closed by its reader (`nnq stats | head -1`): the
    /// command stops, and it is not a failure.
    BrokenPipe,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Run(msg) => write!(f, "error: {msg}"),
            CliError::BrokenPipe => write!(f, "error: output closed"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CliError::BrokenPipe
        } else {
            CliError::Run(e.to_string())
        }
    }
}

impl From<nnq_rtree::RTreeError> for CliError {
    fn from(e: nnq_rtree::RTreeError) -> Self {
        CliError::Run(e.to_string())
    }
}

impl From<nnq_storage::StorageError> for CliError {
    fn from(e: nnq_storage::StorageError) -> Self {
        CliError::Run(e.to_string())
    }
}

/// The error of opening the file `path`, naming it.
pub(crate) fn opening<E: fmt::Display>(path: &str) -> impl FnOnce(E) -> CliError + '_ {
    move |e| CliError::Run(format!("opening {path}: {e}"))
}

/// Parsed `--flag value` arguments.
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `--name value` pairs; `-k` is accepted as an alias for
    /// `--k`. Flags without values and positional arguments are rejected.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .or_else(|| arg.strip_prefix('-'))
                .ok_or_else(|| {
                    CliError::Usage(format!("unexpected positional argument `{arg}`"))
                })?;
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("flag `--{name}` needs a value")))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Self { flags })
    }

    /// A required string flag.
    pub fn req(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required flag `--{name}`")))
    }

    /// An optional string flag.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// An optional parsed flag with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("flag `--{name}`: cannot parse `{v}`"))),
        }
    }

    /// An optional count flag with a default; zero is a usage error.
    pub fn count(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.num(name, default)? {
            0 => Err(CliError::Usage(format!(
                "flag `--{name}` must be at least 1"
            ))),
            n => Ok(n),
        }
    }

    /// Rejects every flag that `usage` (one subcommand's line of the usage
    /// text) does not list.
    pub fn only(&self, usage: &str) -> Result<(), CliError> {
        let listed = |name: &str| {
            usage
                .split(|c: char| c.is_whitespace() || c == '[')
                .filter_map(|t| t.strip_prefix("--").or_else(|| t.strip_prefix('-')))
                .any(|t| t == name)
        };
        // The least name, so the message does not depend on hash order.
        match self.flags.keys().filter(|n| !listed(n)).min() {
            None => Ok(()),
            Some(name) => Err(CliError::Usage(format!(
                "unknown flag `--{name}`; usage:\n{}",
                usage.trim()
            ))),
        }
    }

    /// A required `x,y` coordinate pair of finite numbers.
    pub fn coords(&self, name: &str) -> Result<(f64, f64), CliError> {
        let raw = self.req(name)?;
        let mut parts = raw.split(',');
        let parse = |s: Option<&str>| -> Result<f64, CliError> {
            s.ok_or_else(|| CliError::Usage(format!("flag `--{name}` wants `x,y`")))?
                .trim()
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| CliError::Usage(format!("flag `--{name}`: bad number in `{raw}`")))
        };
        let x = parse(parts.next())?;
        let y = parse(parts.next())?;
        if parts.next().is_some() {
            return Err(CliError::Usage(format!(
                "flag `--{name}` wants exactly two coordinates"
            )));
        }
        Ok((x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flag_pairs() {
        let a = Args::parse(&argv(&["--n", "100", "-k", "5"])).unwrap();
        assert_eq!(a.req("n").unwrap(), "100");
        assert_eq!(a.num::<usize>("k", 1).unwrap(), 5);
        assert_eq!(a.num::<usize>("missing", 7).unwrap(), 7);
        assert!(a.opt("absent").is_none());
    }

    #[test]
    fn rejects_positional_and_dangling() {
        assert!(Args::parse(&argv(&["oops"])).is_err());
        assert!(Args::parse(&argv(&["--n"])).is_err());
    }

    #[test]
    fn coords_parse_and_reject() {
        let a = Args::parse(&argv(&["--at", "1.5,-2"])).unwrap();
        assert_eq!(a.coords("at").unwrap(), (1.5, -2.0));
        let a = Args::parse(&argv(&["--at", "1.5"])).unwrap();
        assert!(a.coords("at").is_err());
        let a = Args::parse(&argv(&["--at", "1,2,3"])).unwrap();
        assert!(a.coords("at").is_err());
        let a = Args::parse(&argv(&["--at", "x,y"])).unwrap();
        assert!(a.coords("at").is_err());
        for raw in ["1,nan", "inf,1", "1,-inf"] {
            let a = Args::parse(&argv(&["--at", raw])).unwrap();
            assert!(a.coords("at").is_err(), "{raw}");
        }
    }

    #[test]
    fn missing_required_flag_names_itself() {
        let a = Args::parse(&[]).unwrap();
        let err = a.req("index").unwrap_err();
        assert!(err.to_string().contains("--index"));
    }
}

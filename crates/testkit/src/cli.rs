//! Command-line flags for the workspace's binaries and bench targets
//! (replaces `clap`): each binary declares one table of [`Flag`]s — the
//! spelling, whether it takes a value, the *modes* that read it — and
//! [`Cli::parse`] rejects an unknown flag, a missing value, a repeated
//! flag, and a flag or positional argument the selected mode does not read,
//! so no flag is ever silently ignored. docs/TESTKIT.md walks through one.

use std::fmt::Display;
use std::str::FromStr;

/// One flag of a binary's table.
pub struct Flag {
    name: &'static str,
    modes: &'static [&'static str],
    value: bool,
    repeat: bool,
    selects: bool,
}

impl Flag {
    /// A flag without a value, read by `modes`.
    pub const fn switch(name: &'static str, modes: &'static [&'static str]) -> Flag {
        Flag { name, modes, value: false, repeat: false, selects: false }
    }

    /// A flag whose value is the next argument, read by `modes`.
    pub const fn value(name: &'static str, modes: &'static [&'static str]) -> Flag {
        Flag { value: true, ..Flag::switch(name, modes) }
    }

    /// The flag may be given more than once ([`Args::values`]).
    pub const fn repeated(self) -> Flag {
        Flag { repeat: true, ..self }
    }

    /// The flag selects its first mode.
    pub const fn selects(self) -> Flag {
        Flag { selects: true, ..self }
    }
}

/// A binary's command line.
pub struct Cli<'a> {
    /// Prefixes every error line.
    pub name: &'a str,
    /// Printed after every error.
    pub usage: &'a str,
    /// The mode of an invocation without a mode-selecting flag.
    pub default_mode: &'a str,
    /// Every flag the binary accepts.
    pub flags: &'a [Flag],
    /// The modes that take positional arguments.
    pub positionals: &'a [&'a str],
}

impl<'a> Cli<'a> {
    /// Parses `args` (without the program name) against the table.
    pub fn parse(&'a self, args: impl IntoIterator<Item = String>) -> Result<Args<'a>, String> {
        let (mut given, mut positionals) = (Vec::<(&Flag, String)>::new(), Vec::new());
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match self.flags.iter().find(|f| f.name == arg) {
                None if arg.starts_with("--") => return Err(format!("unknown flag {arg}")),
                None => positionals.push(arg),
                Some(f) if !f.repeat && given.iter().any(|(g, _)| g.name == f.name) => {
                    return Err(format!("{arg} given twice"));
                }
                Some(f) if f.value => match args.next() {
                    Some(value) => given.push((f, value)),
                    None => return Err(format!("{arg} needs a value")),
                },
                Some(f) => given.push((f, String::new())),
            }
        }
        let mode =
            given.iter().find(|(f, _)| f.selects).map_or(self.default_mode, |g| g.0.modes[0]);
        let stray_flag = given.iter().find(|(f, _)| !f.modes.contains(&mode)).map(|g| g.0.name);
        let stray_positional = positionals.first().filter(|_| !self.positionals.contains(&mode));
        match stray_flag.or(stray_positional.map(String::as_str)) {
            Some(stray) => Err(format!("{stray} cannot be used with {mode}")),
            None => Ok(Args { cli: self, given, mode, positionals }),
        }
    }

    /// [`Cli::parse`] over the process's arguments; an error, or an
    /// argument that is not UTF-8, exits 2.
    pub fn parse_env(&'a self) -> Args<'a> {
        let args = std::env::args_os().skip(1).map(|arg| {
            arg.into_string().unwrap_or_else(|arg| self.fail(format!("{arg:?} is not UTF-8")))
        });
        self.parse(args).unwrap_or_else(|why| self.fail(why))
    }

    /// Prints `why` and the usage to stderr and exits 2: also for a value
    /// the binary itself refuses.
    pub fn fail(&self, why: impl Display) -> ! {
        eprintln!("{}: {why}\n\n{}", self.name, self.usage.trim_end());
        std::process::exit(2)
    }
}

/// The flags and positional arguments of one invocation.
pub struct Args<'a> {
    cli: &'a Cli<'a>,
    given: Vec<(&'a Flag, String)>,
    /// The selected mode: the default, or the first mode-selecting flag's.
    pub mode: &'a str,
    /// The positional arguments, in order.
    pub positionals: Vec<String>,
}

impl Args<'_> {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.values(flag).next().is_some()
    }

    /// The value of `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).next()
    }

    /// Every value of a [`Flag::repeated`] flag, in order.
    pub fn values(&self, flag: &str) -> impl Iterator<Item = &str> {
        let Some(&Flag { name, .. }) = self.cli.flags.iter().find(|f| f.name == flag) else {
            panic!("{flag} is not in the table");
        };
        self.given.iter().filter(move |(f, _)| f.name == name).map(|(_, v)| v.as_str())
    }

    /// The value of `flag` as a `T`; one that does not parse exits 2.
    pub fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        let raw = self.value(flag)?;
        let why = || format!("{flag} expects {}, got {raw:?}", std::any::type_name::<T>());
        Some(raw.parse().unwrap_or_else(|_| self.cli.fail(why())))
    }

    /// [`Args::get`] for a value that must be above zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(&self, flag: &str) -> Option<T> {
        match self.get::<T>(flag)? {
            value if value > T::default() => Some(value),
            _ => self.cli.fail(format!("{flag} must be above 0")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOAD: &str = "a load run";
    const ONCE: &str = "--once";
    const LIST: &str = "--list";
    const CLI: Cli = Cli {
        name: "demo",
        usage: "usage: demo",
        default_mode: LOAD,
        flags: &[
            Flag::value("--seed", &[LOAD, ONCE]),
            Flag::switch("--trace", &[LOAD, ONCE]),
            Flag::value("--clients", &[LOAD]),
            Flag::value("--scenario", &[LOAD]).repeated(),
            Flag::value("--once", &[ONCE]).selects(),
            Flag::value("--out", &[ONCE]),
            Flag::switch("--list", &[LIST]).selects(),
            Flag::switch("-l", &[LIST]).selects(),
        ],
        positionals: &[LOAD],
    };

    fn parse(line: &str) -> Result<Args<'static>, String> {
        CLI.parse(line.split_whitespace().map(String::from))
    }

    fn error(line: &str) -> String {
        parse(line).err().expect("an error")
    }

    #[test]
    fn values_switches_and_the_default_mode() {
        let args = parse("--seed 7 --trace").unwrap();
        assert_eq!(
            (args.mode, args.get::<u64>("--seed"), args.value("--seed")),
            (LOAD, Some(7), Some("7"))
        );
        assert!(args.has("--trace") && !args.has("--clients"));
        assert_eq!(args.get::<usize>("--clients"), None);
        // A value is the next argument, whatever it looks like.
        assert_eq!(parse("--seed --trace").unwrap().value("--seed"), Some("--trace"));
    }

    #[test]
    fn a_missing_value_or_an_unknown_flag_is_an_error() {
        assert_eq!(error("--trace --seed"), "--seed needs a value");
        assert_eq!(error("--once"), "--once needs a value");
        assert_eq!(error("--seed 1 --sede 2"), "unknown flag --sede");
        assert_eq!(error("--"), "unknown flag --");
    }

    #[test]
    fn a_flag_the_mode_does_not_read_is_an_error_in_every_mode() {
        assert_eq!(error("--out d"), "--out cannot be used with a load run");
        assert_eq!(error("--once x --clients 8"), "--clients cannot be used with --once");
        assert_eq!(error("--clients 8 --once x"), "--clients cannot be used with --once");
        assert_eq!(error("--list --seed 1"), "--seed cannot be used with --list");
        // A second mode-selecting flag is a flag of another mode; two
        // spellings of one mode agree.
        assert_eq!(error("--once x --list"), "--list cannot be used with --once");
        assert_eq!(error("--list --once x"), "--once cannot be used with --list");
        assert_eq!(parse("-l --list").unwrap().mode, LIST);
        let once = parse("--once x --seed 3 --out d").unwrap();
        assert_eq!(
            (once.mode, once.value("--once"), once.value("--out")),
            (ONCE, Some("x"), Some("d"))
        );
    }

    #[test]
    fn a_repeated_value_is_kept_only_where_declared() {
        let args = parse("--scenario a --seed 1 --scenario b").unwrap();
        assert_eq!(args.values("--scenario").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(error("--seed 1 --seed 2"), "--seed given twice");
        assert_eq!(error("--trace --trace"), "--trace given twice");
    }

    #[test]
    fn positionals_belong_to_the_modes_that_take_them() {
        assert_eq!(parse("e1 --seed 4 e2").unwrap().positionals, ["e1", "e2"]);
        assert_eq!(error("--once x e1"), "e1 cannot be used with --once");
        // A single dash makes no flag unless the table declares it.
        assert_eq!(parse("-x").unwrap().positionals, ["-x"]);
    }

    #[test]
    #[should_panic(expected = "--sed is not in the table")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse("").unwrap().has("--sed");
    }
}

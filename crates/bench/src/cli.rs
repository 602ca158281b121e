//! The one flag parser shared by every harness binary.
//!
//! Each program declares its flags once, in a static table of [`Flag`]s:
//! the name, whether it takes a value, and its default — spelled as a
//! user would type it (`"1,4"`) — or a metavar (`"<path.json>"`) when the
//! flag is optional or required. [`Flags::parse`] walks the argv against
//! the table; the typed getters parse every value given for a flag and
//! return the last (a repeated flag means the last value wins), or parse
//! the declared default; [`usage`] renders the usage text from the same
//! table, so a default is written in exactly one place. [`cli_main`]
//! prints `error: …` plus that usage to **stderr** and exits non-zero: no
//! harness binary panics on bad flags.

use std::process::ExitCode;

use cta_parallel::Parallelism;
use cta_tensor::KernelPolicy;

/// What a [`Flag`] takes, and what it means when the flag is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    /// A bare switch: on when given, off otherwise.
    Switch,
    /// A value defaulting to this string.
    Default(&'static str),
    /// A value that may be omitted; the string is its usage metavar.
    Optional(&'static str),
    /// A value that must be given; the string is its usage metavar.
    Required(&'static str),
}

/// One entry of a program's flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `"--replicas"`.
    pub name: &'static str,
    arg: Arg,
}

impl Flag {
    /// A value flag defaulting to `default` (e.g. `"1,4"`).
    #[must_use]
    pub const fn value(name: &'static str, default: &'static str) -> Self {
        Self { name, arg: Arg::Default(default) }
    }

    /// A bare switch.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Self { name, arg: Arg::Switch }
    }

    /// A value flag that may be omitted, shown as `[name metavar]`.
    #[must_use]
    pub const fn optional(name: &'static str, metavar: &'static str) -> Self {
        Self { name, arg: Arg::Optional(metavar) }
    }

    /// A value flag that must be given, shown as `name metavar`.
    #[must_use]
    pub const fn required(name: &'static str, metavar: &'static str) -> Self {
        Self { name, arg: Arg::Required(metavar) }
    }

    fn takes_value(&self) -> bool {
        self.arg != Arg::Switch
    }

    fn usage(&self) -> String {
        match self.arg {
            Arg::Switch => format!("[{}]", self.name),
            Arg::Default(v) | Arg::Optional(v) => format!("[{} {v}]", self.name),
            Arg::Required(v) => format!("{} {v}", self.name),
        }
    }
}

/// `--jobs N` and `--kernels P`, the flags every harness binary accepts;
/// see [`Flags::parallelism`].
pub const PARALLEL_FLAGS: [Flag; 2] =
    [Flag::optional("--jobs", "N"), Flag::optional("--kernels", "scalar|blocked|simd")];

/// Column at which [`usage`] wraps.
const WRAP_WIDTH: usize = 80;

/// Renders `lead` (e.g. `"usage: serve_sweep"`) followed by every flag
/// of `table`, wrapped at 80 columns with continuation lines aligned
/// under the first flag.
#[must_use]
pub fn usage<'a>(lead: &str, table: impl IntoIterator<Item = &'a Flag>) -> String {
    let indent = lead.chars().count() + 1;
    let mut out = lead.to_string();
    let mut col = indent - 1;
    for flag in table {
        let item = flag.usage();
        let width = item.chars().count();
        if col >= indent && col + 1 + width > WRAP_WIDTH {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            col = indent;
        } else {
            out.push(' ');
            col += 1;
        }
        out.push_str(&item);
        col += width;
    }
    out
}

/// Reads the flags back out of a [`usage`] text: each flag name, and
/// whether it takes a value. The CLI tests drive every binary from the
/// usage it prints with this.
#[must_use]
pub fn usage_flags(text: &str) -> Vec<(&str, bool)> {
    text.split_whitespace()
        .filter_map(|word| {
            let word = word.strip_prefix('[').unwrap_or(word);
            word.starts_with("--").then(|| match word.strip_suffix(']') {
                Some(name) => (name, false),
                None => (word, true),
            })
        })
        .collect()
}

/// Parses one value for `flag`, reporting the flag name and expected
/// `kind` ("an integer", "a number", …) on failure.
///
/// # Errors
///
/// Returns a `"{flag} takes {kind}, got …"` message when `s` does not
/// parse as `T`.
pub fn parse_num<T: std::str::FromStr>(s: &str, flag: &str, kind: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag} takes {kind}, got {s:?}"))
}

/// One invocation parsed against a flag table: which flags were given,
/// with which values, in argv order.
#[derive(Debug)]
pub struct Flags<'t> {
    table: &'t [Flag],
    given: Vec<(usize, Option<String>)>,
}

impl<'t> Flags<'t> {
    /// Walks `argv` (without the program name) against `table`.
    ///
    /// # Errors
    ///
    /// `unknown flag "…"` for a word not in the table (a stray operand
    /// after a switch included), `"… needs a value"` for a value flag
    /// that ends the argv.
    pub fn parse(
        table: &'t [Flag],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut it = argv.into_iter();
        while let Some(word) = it.next() {
            let index = table
                .iter()
                .position(|f| f.name == word)
                .ok_or_else(|| format!("unknown flag {word:?}"))?;
            let value = if table[index].takes_value() {
                Some(it.next().ok_or_else(|| format!("{word} needs a value"))?)
            } else {
                None
            };
            given.push((index, value));
        }
        Ok(Self { table, given })
    }

    fn index(&self, name: &str) -> usize {
        self.table
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("internal: {name} is not in this program's flag table"))
    }

    /// Whether `name` was given (for a switch: whether it is on).
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        let index = self.index(name);
        self.given.iter().any(|(i, _)| *i == index)
    }

    /// The value of `name` through `parse`: every given value is parsed
    /// in order and the last one wins; with none given, the declared
    /// default is parsed, and an optional or required flag yields `None`.
    ///
    /// # Errors
    ///
    /// The first error `parse` reports.
    pub fn opt<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let index = self.index(name);
        let mut last = None;
        for value in self.given.iter().filter(|(i, _)| *i == index).filter_map(|(_, v)| v.as_ref())
        {
            last = Some(parse(value)?);
        }
        match (last, self.table[index].arg) {
            (None, Arg::Default(default)) => parse(default).map(Some),
            (last, _) => Ok(last),
        }
    }

    /// [`Flags::opt`] for a flag that must end up with a value.
    ///
    /// # Errors
    ///
    /// `parse`'s error, or `"missing {name}"` for an absent required flag.
    pub fn get<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        self.opt(name, parse)?.ok_or_else(|| format!("missing {name}"))
    }

    /// The raw string value of `name`, if any.
    #[must_use]
    pub fn opt_text(&self, name: &str) -> Option<String> {
        self.opt(name, |s| Ok(s.to_string())).unwrap_or_default()
    }

    /// A number; `kind` ("an integer", "a number") names it in errors.
    ///
    /// # Errors
    ///
    /// See [`parse_num`] and [`Flags::get`].
    pub fn num<T: std::str::FromStr>(&self, name: &str, kind: &str) -> Result<T, String> {
        self.get(name, |s| parse_num(s, name, kind))
    }

    /// A comma-separated list of numbers; `kind` ("integers") names them.
    ///
    /// # Errors
    ///
    /// The first bad element's [`parse_num`] error.
    pub fn list<T: std::str::FromStr>(&self, name: &str, kind: &str) -> Result<Vec<T>, String> {
        self.get(name, |s| s.split(',').map(|part| parse_num(part, name, kind)).collect())
    }

    /// One of a fixed set of spellings, resolved by the policy's own
    /// `parse`.
    ///
    /// # Errors
    ///
    /// `unknown {what} "…" ({alts})` for a spelling `parse` rejects.
    pub fn choice<T>(
        &self,
        name: &str,
        what: &str,
        alts: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        self.get(name, |s| parse(s).ok_or_else(|| format!("unknown {what} {s:?} ({alts})")))
    }

    /// A comma-separated list of [`Flags::choice`] spellings, each trimmed.
    ///
    /// # Errors
    ///
    /// The first unknown spelling's [`Flags::choice`] error.
    pub fn choices<T>(
        &self,
        name: &str,
        what: &str,
        alts: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        self.get(name, |s| {
            s.split(',')
                .map(str::trim)
                .map(|w| parse(w).ok_or_else(|| format!("unknown {what} {w:?} ({alts})")))
                .collect()
        })
    }

    /// The [`PARALLEL_FLAGS`]: the `--jobs` worker count (default
    /// [`Parallelism::from_env`]: `CTA_JOBS`, then available cores) and
    /// the `--kernels` policy if given (else the lazy `CTA_KERNELS`/auto
    /// default applies). Nothing is installed.
    ///
    /// # Errors
    ///
    /// A non-positive `--jobs`, or a `--kernels` other than
    /// `scalar|blocked|simd`.
    pub fn parallelism(&self) -> Result<(Parallelism, Option<KernelPolicy>), String> {
        let jobs =
            self.opt("--jobs", Parallelism::parse_arg)?.unwrap_or_else(Parallelism::from_env);
        Ok((jobs, self.opt("--kernels", KernelPolicy::parse_arg)?))
    }

    /// [`Flags::parallelism`], installing a given kernel policy
    /// process-wide; returns the worker count. The figure benchmarks'
    /// whole CLI.
    ///
    /// # Errors
    ///
    /// As [`Flags::parallelism`].
    pub fn install_parallelism(&self) -> Result<Parallelism, String> {
        let (jobs, kernels) = self.parallelism()?;
        if let Some(policy) = kernels {
            policy.install();
        }
        Ok(jobs)
    }
}

/// The shared `main` wrapper: parses `argv` against `table` and runs
/// `body`; on any error, prints `error: {e}` followed by the usage text
/// generated from `table` to stderr and exits non-zero.
pub fn cli_main(
    program: &str,
    table: &[Flag],
    argv: impl IntoIterator<Item = String>,
    body: impl FnOnce(&Flags) -> Result<(), String>,
) -> ExitCode {
    match Flags::parse(table, argv).and_then(|flags| body(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage(&format!("usage: {program}"), table));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TABLE: [Flag; 6] = [
        Flag::value("--n", "3"),
        Flag::value("--loads", "0.5,1"),
        Flag::switch("--on"),
        Flag::optional("--out", "<path.json>"),
        Flag::required("--mode", "<a|b>"),
        Flag::value("--seed", "7"),
    ];

    fn words(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(list: &[&str]) -> Result<Flags<'static>, String> {
        Flags::parse(&TABLE, words(list))
    }

    fn mode(s: &str) -> Option<char> {
        matches!(s, "a" | "b").then(|| s.chars().next().expect("non-empty"))
    }

    #[test]
    fn parse_num_reports_flag_and_kind() {
        assert_eq!(parse_num::<usize>("12", "--n", "an integer").unwrap(), 12);
        let err = parse_num::<usize>("many", "--n", "an integer").unwrap_err();
        assert!(err.contains("--n") && err.contains("an integer") && err.contains("many"));
    }

    #[test]
    fn walk_rejects_unknown_flags_and_missing_values() {
        assert!(parse(&["--frob"]).unwrap_err().contains("unknown flag \"--frob\""));
        assert!(parse(&["--n"]).unwrap_err().contains("--n needs a value"));
        // A switch takes no value: the next word is read as a flag.
        assert!(parse(&["--on", "yes"]).unwrap_err().contains("unknown flag \"yes\""));
        // A value flag takes the next word whatever it looks like.
        assert_eq!(parse(&["--out", "--on"]).unwrap().opt_text("--out").as_deref(), Some("--on"));
    }

    #[test]
    fn getters_fall_back_to_the_declared_default() {
        let f = parse(&[]).unwrap();
        assert_eq!(f.num::<usize>("--n", "an integer").unwrap(), 3);
        assert_eq!(f.list::<f64>("--loads", "numbers").unwrap(), vec![0.5, 1.0]);
        assert!(!f.switch("--on"));
        assert_eq!(f.opt_text("--out"), None);
        assert_eq!(f.choice("--mode", "mode", "a|b", mode).unwrap_err(), "missing --mode");
    }

    #[test]
    fn the_last_value_wins_but_every_value_is_checked() {
        let f = parse(&["--n", "4", "--on", "--n", "5", "--mode", "b"]).unwrap();
        assert_eq!(f.num::<usize>("--n", "an integer").unwrap(), 5);
        assert!(f.switch("--on"));
        assert_eq!(f.choice("--mode", "mode", "a|b", mode).unwrap(), 'b');
        let f = parse(&["--n", "x", "--n", "5"]).unwrap();
        assert!(f.num::<usize>("--n", "an integer").unwrap_err().contains("--n takes an integer"));
    }

    #[test]
    fn list_and_choice_errors_name_the_flag() {
        let f = parse(&["--loads", "1,oops", "--mode", "c"]).unwrap();
        assert!(f.list::<f64>("--loads", "numbers").unwrap_err().contains("--loads"));
        assert_eq!(
            f.choice("--mode", "mode", "a|b", mode).unwrap_err(),
            "unknown mode \"c\" (a|b)"
        );
        let f = parse(&["--mode", "a, b,c"]).unwrap();
        assert_eq!(
            f.choices("--mode", "mode", "a|b", mode).unwrap_err(),
            "unknown mode \"c\" (a|b)"
        );
    }

    #[test]
    fn usage_lists_every_flag_with_its_default_and_wraps() {
        let text = usage("usage: demo", &TABLE);
        assert!(text.starts_with("usage: demo [--n 3] [--loads 0.5,1] [--on] [--out <path.json>]"));
        assert!(text.contains("--mode <a|b>") && !text.contains("[--mode"));
        assert!(text.lines().all(|line| line.chars().count() <= WRAP_WIDTH), "{text}");
        let long = [Flag::value("--a-very-long-flag-name", "with,a,long,default,value"); 4];
        let text = usage("usage: demo", &long);
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(text.lines().skip(1).all(|line| line.starts_with("            [--a-very")));
    }

    #[test]
    fn usage_flags_reads_the_table_back() {
        let text = usage("usage: demo", TABLE.iter().chain(&PARALLEL_FLAGS));
        let read: Vec<_> =
            TABLE.iter().chain(&PARALLEL_FLAGS).map(|f| (f.name, f.takes_value())).collect();
        assert_eq!(usage_flags(&text), read);
    }

    #[test]
    fn parallel_flags_parse_without_installing() {
        let parse = |list: &[&str]| {
            Flags::parse(&PARALLEL_FLAGS, words(list)).and_then(|f| f.parallelism())
        };
        assert_eq!(parse(&["--jobs", "3"]).unwrap().0.get(), 3);
        assert!(parse(&[]).unwrap().0.get() >= 1);
        assert_eq!(parse(&[]).unwrap().1, None);
        assert!(parse(&["--jobs"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--frob"]).unwrap_err().contains("unknown flag"));
        let err = parse(&["--kernels", "turbo"]).unwrap_err();
        assert!(err.contains("--kernels takes scalar|blocked|simd"), "{err}");
        assert_eq!(
            parse(&["--kernels", "simd", "--jobs", "2"]).unwrap().1,
            Some(KernelPolicy::Simd)
        );
    }

    /// Words a random argv draws from: every table name, plus junk.
    const VOCAB: [&str; 16] = [
        "--n", "--loads", "--on", "--out", "--mode", "--seed", "", "--", "-", "junk", "1", "-1",
        "nan", "0.5,,1", "a", "--N",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any argv over table names, junk, empty words and `--` parses
        /// to `Ok` or `Err` — never a panic — and so does every getter.
        fn random_argv_never_panics(len in 0usize..10, seed in 0u64..u64::MAX) {
            let mut state = seed;
            let argv: Vec<String> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    VOCAB[(state >> 33) as usize % VOCAB.len()].to_string()
                })
                .collect();
            match Flags::parse(&TABLE, argv) {
                Ok(f) => {
                    let _ = f.num::<usize>("--n", "an integer");
                    let _ = f.list::<f64>("--loads", "numbers");
                    let _ = f.switch("--on");
                    let _ = f.opt_text("--out");
                    let _ = f.choice("--mode", "mode", "a|b", mode);
                    let _ = f.choices("--mode", "mode", "a|b", mode);
                    let _ = f.num::<i64>("--seed", "an integer");
                }
                Err(e) => prop_assert!(
                    e.starts_with("unknown flag ") || e.ends_with(" needs a value"),
                    "{e}"
                ),
            }
        }
    }
}

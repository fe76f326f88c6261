//! One way to read a command line, shared by every `hbsp-bench` binary.
//!
//! A binary reads its options from an [`Args`] by name, in any order and
//! anywhere among the positionals (given twice, the last one wins), then
//! takes the words left. An option with no value after it, a value that
//! does not parse, or a `-` word no read took calls the binary's `usage`,
//! which prints its usage text and exits 2 (`tests/cli.rs` holds all
//! nine binaries to this).

use crate::testbed;
use hbsp_collectives::plan::Strategy;
use hbsp_core::MachineTree;
use std::process::exit;
use std::str::FromStr;

/// `--strategy flat|hier`.
pub const STRATEGIES: [(&str, Strategy); 2] =
    [("flat", Strategy::Flat), ("hier", Strategy::Hierarchical)];

/// `--engine sim|threads|both`: the engine names (`Executor::engine_name`)
/// each word selects.
pub const ENGINES: [(&str, &[&str]); 3] = [
    ("sim", &["sim"]),
    ("threads", &["threads"]),
    ("both", &["sim", "threads"]),
];

/// The words of a command line that no read has taken yet.
pub struct Args {
    words: Vec<String>,
    usage: fn() -> !,
}

impl Args {
    /// The process's arguments, without the program name.
    pub fn new(usage: fn() -> !) -> Self {
        let words = std::env::args().skip(1).collect();
        Args { words, usage }
    }

    /// Whether `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let given = self.words.len();
        self.words.retain(|w| w != name);
        self.words.len() < given
    }

    /// The word after the last `name`, parsed; `None` when `name` is
    /// not given.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.take(name, |word| word.parse().ok())
    }

    /// What `table` pairs with the word after the last `name`.
    pub fn choice<T: Copy>(&mut self, name: &str, table: &[(&str, T)]) -> Option<T> {
        self.take(name, |word| {
            (table.iter().find(|(w, _)| *w == word)).map(|&(_, t)| t)
        })
    }

    /// The words left, none of which may start with `-`.
    pub fn positional(self) -> Vec<String> {
        if self.words.iter().any(|w| w.starts_with('-')) {
            (self.usage)()
        }
        self.words
    }

    fn take<T>(&mut self, name: &str, read: impl Fn(&str) -> Option<T>) -> Option<T> {
        let mut last = None;
        while let Some(at) = self.words.iter().position(|w| w == name) {
            let word = self.words.get(at + 1).unwrap_or_else(|| (self.usage)());
            last = Some(read(word).unwrap_or_else(|| (self.usage)()));
            self.words.drain(at..at + 2);
        }
        last
    }
}

/// The machine `spec` names ([`testbed::parse_machine`]). A testbed
/// count out of range calls `usage`; a file that cannot be read or
/// parsed prints why and exits 1.
pub fn machine(spec: &str, usage: fn() -> !) -> MachineTree {
    match testbed::parse_machine(spec) {
        Ok(Some(tree)) => tree,
        Ok(None) => usage(),
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refuse() -> ! {
        panic!("usage")
    }

    fn args(line: &str) -> Args {
        let words = line.split_whitespace().map(String::from).collect();
        Args {
            words,
            usage: refuse,
        }
    }

    #[test]
    fn options_are_read_anywhere_and_the_last_value_wins() {
        let mut a = args("m --kb 5 gather --strategy hier --trace --kb 7");
        assert_eq!(a.value("--kb"), Some(7u32));
        assert_eq!(a.choice("--engine", &ENGINES), None);
        let strategy = a.choice("--strategy", &STRATEGIES);
        assert_eq!(strategy, Some(Strategy::Hierarchical));
        assert!(a.flag("--trace") && !a.flag("--json"));
        assert_eq!(a.positional(), ["m", "gather"]);
    }
}

//! The command line of the bench bins: `--threads N` for all of them, plus
//! the one further argument each bin takes. A bad argument is a one-line
//! usage error with exit status 2, reported before any work starts.

use benchgen::paper_suite;

/// What a bin takes besides `--threads N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing else (`figure1`).
    Nothing,
    /// `--circuits a,b,c`, a subset of the paper suite (`tables23`).
    CircuitList,
    /// Suite circuit names as positional arguments (`ablation`).
    CircuitNames,
    /// One positional trial count (`table1`).
    Trials,
}

/// Parsed bench-bin arguments; `None` where the argument was not given.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--threads N` (0 leaves the count to [`par::thread_count`]).
    pub threads: Option<usize>,
    /// The named suite circuits, in order.
    pub circuits: Option<Vec<String>>,
    /// The trial count.
    pub trials: Option<usize>,
}

fn suite_circuit_name(name: &str) -> Result<String, String> {
    match paper_suite().iter().any(|e| e.name == name) {
        true => Ok(name.to_string()),
        false => Err(format!("unknown suite circuit `{name}`")),
    }
}

/// Parse `args` (without the program name) for a bin that takes `takes`.
///
/// # Errors
/// An unexpected argument, a missing or non-numeric value, a circuit that
/// is not in the paper suite, or a trial count that is not positive.
pub fn parse_args(args: &[String], takes: Takes) -> Result<BenchArgs, String> {
    let mut out = BenchArgs::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match (arg.as_str(), takes) {
            ("--threads", _) => {
                let v = value()?;
                let n = v
                    .parse()
                    .map_err(|_| format!("`--threads` takes a number, not `{v}`"))?;
                out.threads = Some(n);
            }
            ("--circuits", Takes::CircuitList) => {
                let list = value()?.split(',').map(suite_circuit_name);
                out.circuits = Some(list.collect::<Result<_, _>>()?);
            }
            (name, Takes::CircuitNames) if !name.starts_with('-') => {
                let circuit = suite_circuit_name(name)?;
                out.circuits.get_or_insert_with(Vec::new).push(circuit);
            }
            (count, Takes::Trials) if !count.starts_with('-') && out.trials.is_none() => {
                let n = count.parse().ok().filter(|&n| n > 0);
                let why = || format!("the trial count must be a positive number, not `{count}`");
                out.trials = Some(n.ok_or_else(why)?);
            }
            (other, _) => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(out)
}

/// Parse the process arguments for `takes`; on a bad argument print
/// `error: …` with the `usage` line to stderr and exit with status 2.
pub fn args_or_exit(usage: &str, takes: Takes) -> BenchArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args, takes).unwrap_or_else(|e| {
        eprintln!("error: {e} (usage: {usage})");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::Takes::*;
    use super::*;

    fn parse(args: &str, takes: Takes) -> Result<BenchArgs, String> {
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        parse_args(&args, takes)
    }

    #[test]
    fn valid_arguments_parse() {
        let names = |list: &[&str]| Some(list.iter().map(|s| s.to_string()).collect());
        let t23 = parse("--circuits cm42a,x2 --threads 2", CircuitList).unwrap();
        assert_eq!(
            (t23.threads, t23.circuits),
            (Some(2), names(&["cm42a", "x2"]))
        );
        let ablation = parse("x2 --threads 0 s344", CircuitNames).unwrap();
        assert_eq!(ablation.circuits, names(&["x2", "s344"]));
        assert_eq!(parse("50", Trials).unwrap().trials, Some(50));
        assert_eq!(parse("", Nothing), Ok(BenchArgs::default()));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for (args, takes, why) in [
            ("--threads", CircuitList, "`--threads` needs a value"),
            ("--threads two", Nothing, "a number, not `two`"),
            ("--circuits", CircuitList, "`--circuits` needs a value"),
            ("--circuits nope", CircuitList, "suite circuit `nope`"),
            ("--circuits x2,", CircuitList, "suite circuit ``"),
            ("x2 nope", CircuitNames, "suite circuit `nope`"),
            ("--circuits x2", CircuitNames, "argument `--circuits`"),
            ("x2", CircuitList, "unexpected argument `x2`"),
            ("x2", Nothing, "unexpected argument `x2`"),
            ("0", Trials, "positive number, not `0`"),
            ("5 6", Trials, "unexpected argument `6`"),
        ] {
            let err = parse(args, takes).unwrap_err();
            assert!(err.contains(why), "{args:?}: {err}");
        }
    }
}

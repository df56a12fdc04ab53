//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro all                 # every experiment
//! repro table1 fig12        # a subset
//! repro --scale 0.5 all     # scale dataset cardinalities (finite, > 0)
//! repro --list              # registry
//! ```
//!
//! A malformed `--scale` or an unknown experiment name prints the usage and
//! exits non-zero before any experiment runs.

use sgq_bench::{run_experiment, EXPERIMENTS};
use std::process::ExitCode;

/// What the command line asks for.
enum Command {
    /// Print the usage and the experiment registry.
    List,
    /// Run these experiments at this dataset scale.
    Run {
        scale: f64,
        names: Vec<&'static str>,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args.is_empty() {
        return Ok(Command::List);
    }
    let mut scale = 1.0f64;
    let mut all = false;
    let mut names = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" | "-l" | "--help" => return Ok(Command::List),
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        format!("--scale must be a finite positive number, got `{value}`")
                    })?;
            }
            "all" => all = true,
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some((n, _)) => names.push(*n),
                None => return Err(format!("unknown experiment `{name}`")),
            },
        }
    }
    if all {
        names = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    }
    if names.is_empty() {
        return Err("no experiment named".into());
    }
    Ok(Command::Run { scale, names })
}

fn usage() {
    eprintln!("usage: repro [--scale S] <experiment…|all>\n\nexperiments:");
    for (name, desc) in EXPERIMENTS {
        eprintln!("  {name:<8} {desc}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, names) = match parse(&args) {
        Ok(Command::List) => {
            usage();
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run { scale, names }) => (scale, names),
        Err(e) => {
            eprintln!("repro: {e}\n");
            usage();
            return ExitCode::from(2);
        }
    };
    for name in names {
        // Every name was checked against the registry above.
        if let Some(output) = run_experiment(name, scale) {
            println!("================================================================");
            println!("{output}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(f64, Vec<&'static str>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match parse(&args)? {
            Command::List => Err("list".into()),
            Command::Run { scale, names } => Ok((scale, names)),
        }
    }

    #[test]
    fn accepts_names_all_and_a_finite_positive_scale() {
        assert_eq!(run(&["table1"]), Ok((1.0, vec!["table1"])));
        assert_eq!(
            run(&["--scale", "0.5", "table1", "fig12"]),
            Ok((0.5, vec!["table1", "fig12"]))
        );
        let (_, names) = run(&["table1", "all"]).unwrap();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert_eq!(run(&[]), Err("list".into()));
        assert_eq!(run(&["table1", "--help"]), Err("list".into()));
    }

    #[test]
    fn rejects_bad_scales_and_unknown_names() {
        for bad in ["abc", "0", "-1", "NaN", "inf", "-inf"] {
            assert!(
                run(&["--scale", bad, "table1"]).is_err_and(|e| e.contains("--scale")),
                "--scale {bad} must be refused"
            );
        }
        assert!(run(&["table1", "--scale"]).is_err());
        assert!(run(&["table1", "nonsense"]).is_err_and(|e| e.contains("nonsense")));
        assert!(run(&["--scale", "2"]).is_err());
    }
}

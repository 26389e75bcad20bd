//! End-to-end benchmark of the gSketch library.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the library
//! through its public API from one closed-loop client thread (each call
//! returns before the next is made), checks the answers, and prints the
//! metrics by name and unit. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). See
//! `perfbench/README.md` for every metric's definition.

mod checks;
mod host;
mod inputs;
mod measure;
mod memory;
mod pace;
mod probes;
mod run;
mod stats;
mod trace;
mod windowed;

use host::{calibration_mops, CpuTicks, Fingerprint};
use inputs::{Inputs, Workload};
use measure::{json_line, Metrics};
use run::Run;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs write their scratch files and span traces, relative to
/// the directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }

    let fingerprint = Fingerprint::collect();
    let calib = calibration_mops();
    let ticks = CpuTicks::read();
    let inp = Inputs::generate(args.workload, args.seed);
    let owners = host::parallelism();
    let mut r = Run::new(args.seconds, args.trace, owners, out_dir.clone());

    let (mem, win) = if args.workload == Workload::TimeTravelIpAttack {
        (None, windowed::run(&mut r, &inp))
    } else {
        (memory::run(&mut r, &inp), None)
    };
    let slowdown = r.pace.slowdown();
    r.notes.push(r.pace.summary());
    let end_to_end = std::mem::take(&mut r.metrics);
    if args.trace {
        probes::run(&mut r, &inp, mem, win);
    } else if let Some(win) = win {
        let _ = std::fs::remove_file(&win.snapshot);
    }
    let steal = ticks.steal_frac_until(&CpuTicks::read());
    if args.trace {
        r.metrics.put("host.calib_mops", calib, "Mop/s");
        r.metrics.put("host.slowdown", slowdown, "ratio");
        r.metrics.put("host.steal_frac", steal, "fraction");
        r.metrics.put("trace.overhead_frac", r.overhead, "fraction");
        let path = out_dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written =
            std::fs::File::create(&path).and_then(|f| r.tr.write_jsonl(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => r.notes.push(format!(
                "{} spans written to {}",
                r.tr.spans().len(),
                path.display()
            )),
            Err(e) => r.notes.push(format!("spans not written: {e}")),
        }
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: parallelism {} | cpu {} | {} | git {} | calib {calib:.1} Mop/s | steal {:.4} | slowdown {slowdown:.4}",
        fingerprint.parallelism,
        fingerprint.cpu_model,
        fingerprint.rustc,
        fingerprint.git_sha,
        steal
    );
    let label = if args.trace {
        "end-to-end (traced run, for reference)"
    } else {
        "end-to-end"
    };
    print_metrics(label, &end_to_end);
    println!(
        "  {:<34} {} ({} failed of {} checked)",
        "fail_frac",
        r.checks.fail_frac(),
        r.checks.failed(),
        r.checks.attempted()
    );
    if args.trace {
        print_metrics("per-layer", &r.metrics);
    }
    for n in &r.notes {
        println!("note: {n}");
    }
    for f in r.checks.failures() {
        println!("FAILED: {f}");
    }
    let reported = if args.trace { &r.metrics } else { &end_to_end };
    println!(
        "{}",
        json_line(r.checks.attempted(), r.checks.failed(), reported)
    );
    ExitCode::SUCCESS
}

fn print_metrics(label: &str, m: &Metrics) {
    println!("{label}:");
    for x in &m.0 {
        println!("  {:<34} {} {}", x.name, x.value, x.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = args("--workload replay-dblp --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ReplayDblp);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload replay-dblp --seed x").is_err());
        assert!(args("--workload replay-dblp --seed 1 --trace 2").is_err());
        assert!(args("--workload replay-dblp --seed").is_err());
    }
}

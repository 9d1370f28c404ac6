//! Command line: `apram-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. Prints progress and mismatches on
//! stderr and one JSON result object as the last line of stdout.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: apram-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        apram_perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage();
        };
        let ok = match args[i].as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|_| seconds > 0.0 && seconds <= 600.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage();
    };
    if !apram_perfbench::WORKLOADS.contains(&workload.as_str()) {
        return usage();
    }
    match apram_perfbench::run(&workload, seed, seconds, trace) {
        Ok(outcome) => {
            for e in &outcome.tally.errors {
                eprintln!("mismatch: {e}");
            }
            println!("{}", outcome.to_json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("apram-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

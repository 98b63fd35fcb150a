//! The ViteX benchmark: end-to-end and per-layer metrics over six
//! seeded workloads. See `README.md` for the protocol and the metric
//! definitions and `../BENCHMARK.json` for the declared names and bounds.
//!
//! ```text
//! vitex-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!                 [--repeat N] [--check]
//! ```
//!
//! Without `--trace` a workload gets both runs (and the tracing overhead
//! between them); `--trace 0` is the untraced run alone, `--trace 1` the
//! traced one. The last line printed for a workload is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod engines;
mod json;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use measure::{Protocol, Tally};
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use workloads::{WorkloadSpec, PINNED_SEED, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: vitex-benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] [--check]";

struct Options {
    workloads: Vec<&'static WorkloadSpec>,
    seed: u64,
    seconds: f64,
    /// `Some(false)` untraced only, `Some(true)` traced only, `None` both.
    trace: Option<bool>,
    repeat: usize,
    check: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: PINNED_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        repeat: 1,
        check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads.push(workloads::spec(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeat" => {
                o.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--check" => o.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().collect();
    }
    Ok(o)
}

// ----- BENCHMARK.json -----

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn load_manifest() -> Result<Json, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key).and_then(Json::as_str).unwrap_or("")
}

fn section<'a>(manifest: &'a Json, key: &str) -> &'a [Json] {
    manifest.get(key).map(Json::as_array).unwrap_or(&[])
}

/// `BENCHMARK.json` must declare exactly what the tables print.
fn check_manifest(manifest: &Json) -> Result<(), String> {
    let section = |key| section(manifest, key);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(&str, &str, &str)> = section(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let printed: Vec<(&str, &str, &str)> =
            defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
        if let Some(bad) = declared.iter().find(|d| !stats::valid_name(d.0)) {
            return Err(format!("BENCHMARK.json {key}: {:?} is not a valid name", bad.0));
        }
        if declared != printed {
            let odd = declared
                .iter()
                .zip(&printed)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("declares {a:?}, the benchmark prints {b:?}"))
                .unwrap_or_else(|| {
                    format!("{} declared, {} printed", declared.len(), printed.len())
                });
            return Err(format!("BENCHMARK.json {key}: {odd}"));
        }
    }
    for m in section("end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64);
        if !bound.is_some_and(|b| (0.0..=0.25).contains(&b)) {
            return Err(format!("BENCHMARK.json: {} needs a bound in [0, 0.25]", field(m, "name")));
        }
    }
    let declared: Vec<(&str, &str)> =
        section("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
    let defined: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    if declared != defined {
        return Err("BENCHMARK.json workloads differ from the benchmark's".to_string());
    }
    if manifest.get("run_seconds").and_then(Json::as_f64) != Some(RUN_SECONDS) {
        return Err(format!("BENCHMARK.json run_seconds is not {RUN_SECONDS}"));
    }
    Ok(())
}

fn bound_of(manifest: &Json, metric: &str) -> f64 {
    section(manifest, "end_to_end")
        .iter()
        .find(|m| field(m, "name") == metric)
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

// ----- the host -----

/// The checked-out commit, read from `.git` without starting a process;
/// `none` in an exported tree.
fn git_revision() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "none".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

fn host_line(seed: u64) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("# seed={seed} nproc={nproc} rustc=\"{rustc}\" git={}", git_revision())
}

// ----- one workload -----

/// What one run of one workload produced.
struct WorkloadRun {
    end_to_end: Option<Values>,
    per_layer: Option<Values>,
    tally: Tally,
}

impl WorkloadRun {
    fn metrics(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.end_to_end.iter().chain(&self.per_layer).flat_map(Values::iter)
    }

    /// The result line of the driver's contract.
    fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (def, value)) in self.metrics().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn run_workload(
    spec: &'static WorkloadSpec,
    seed: u64,
    protocol: Protocol,
    trace: Option<bool>,
) -> Result<WorkloadRun, String> {
    let name = spec.name;
    let fail = |e: vitex_core::EngineError| format!("workload {name}: {e}");
    let mut w = spec.generate(seed)?;
    w.docs.truncate(protocol.max_docs.unwrap_or(usize::MAX));
    let reference = engines::verify(&w)?;
    let mut run = WorkloadRun { end_to_end: None, per_layer: None, tally: Tally::default() };
    let mut untraced_sweep = None;
    if trace != Some(true) {
        let e = measure::measure(&w, &reference, protocol).map_err(fail)?;
        let mut v = Values::zeroed(END_TO_END);
        v.set("throughput_mb_s", e.throughput_mb_s);
        v.set("setup_s", e.setup_s);
        v.set("engine_mem_kib", e.engine_mem_kib);
        run.tally.add(e.tally);
        let d = e.diagnostics;
        println!(
            "# {name}: {} passes (p50 {:.3} ms, p{:.1} {:.3} ms, noise ratio {:.3}), {} cold starts, \
             failed_share {}/{}",
            d.passes,
            d.doc_ms_p50,
            d.tail_pct,
            d.doc_ms_tail,
            d.noise_ratio,
            e.cold_starts,
            e.tally.failed,
            e.tally.attempted
        );
        if d.noise_ratio > 1.25 {
            println!(
                "# {name}: noisy host: the median sweep is {:.2}x the best sweep",
                d.noise_ratio
            );
        }
        untraced_sweep = Some(e.sweep_ns);
        run.end_to_end = Some(v);
    }
    if trace != Some(false) {
        let t = trace::traced(&w, &reference, protocol).map_err(fail)?;
        run.tally.add(t.tally);
        for missing in &t.missing {
            println!("# {name}: the telemetry registry no longer exports {missing}; reads 0");
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("trace-out");
        let path = dir.join(format!("{name}.trace.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, t.tracer.chrome_json(name)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {name}: {} spans written to {}", t.tracer.len(), path.display());
        if let Some(untraced) = untraced_sweep {
            println!(
                "# {name}: tracing overhead {:+.2} % (full-pass best sweep {:.3} ms traced, {:.3} ms untraced)",
                100.0 * (t.sweep_ns as f64 / untraced as f64 - 1.0),
                t.sweep_ns as f64 / 1e6,
                untraced as f64 / 1e6
            );
        }
        run.per_layer = Some(t.values);
    }
    for (def, value) in run.metrics() {
        println!("{name:<32} {:<36} {value:>16.4} {}", def.name, def.unit);
    }
    println!("{}", run.result_json());
    Ok(run)
}

// ----- modes -----

/// `--repeat N`: N complete untraced runs; per workload and end-to-end
/// metric the N values, their median and the largest deviation from it,
/// against the metric's bound.
fn repeat(o: &Options, manifest: &Json) -> Result<bool, String> {
    let mut runs: Vec<Vec<WorkloadRun>> = Vec::new();
    for i in 1..=o.repeat {
        println!("# run {i} of {}", o.repeat);
        let run = o
            .workloads
            .iter()
            .map(|spec| run_workload(spec, o.seed, Protocol::full(o.seconds), Some(false)));
        runs.push(run.collect::<Result<_, _>>()?);
    }
    println!("# repeatability over {} runs: values, median, max deviation vs bound", o.repeat);
    let mut correct = true;
    for (i, spec) in o.workloads.iter().enumerate() {
        for def in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r[i].end_to_end.as_ref().and_then(|v| v.get(def.name)).unwrap_or(0.0))
                .collect();
            let median = stats::median_f64(&values);
            let deviation = values.iter().map(|v| (v - median).abs() / median).fold(0.0, f64::max);
            let bound = bound_of(manifest, def.name);
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<32} {:<16} [{}] median {median:.4} {} max dev {:.2} % bound {:.0} % {}",
                spec.name,
                def.name,
                listed.join(", "),
                def.unit,
                100.0 * deviation,
                100.0 * bound,
                if deviation <= bound { "ok" } else { "WIDE" }
            );
        }
        correct &= runs.iter().all(|r| r[i].tally.failed == 0);
    }
    Ok(correct)
}

/// `--check`: every workload through one short round of both runs, then
/// every metric `BENCHMARK.json` names must have been printed with its
/// unit (the tables are what is printed; the manifest must equal them).
fn check(o: &Options, manifest: &Json) -> Result<bool, String> {
    check_manifest(manifest)?;
    let mut correct = true;
    for spec in &o.workloads {
        let run = run_workload(spec, o.seed, Protocol::smoke(), None)?;
        let printed = run.metrics().count();
        if printed != END_TO_END.len() + PER_LAYER.len() {
            return Err(format!("workload {}: {printed} metrics printed", spec.name));
        }
        correct &= run.tally.failed == 0;
    }
    println!(
        "# check: BENCHMARK.json matches the {} metrics printed",
        END_TO_END.len() + PER_LAYER.len()
    );
    Ok(correct)
}

fn run(o: &Options) -> Result<bool, String> {
    println!("{}", host_line(o.seed));
    if o.check {
        return check(o, &load_manifest()?);
    }
    if o.repeat > 1 {
        return repeat(o, &load_manifest()?);
    }
    let mut correct = true;
    for spec in &o.workloads {
        correct &=
            run_workload(spec, o.seed, Protocol::full(o.seconds), o.trace)?.tally.failed == 0;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("passes failed: outputs differ from the verified reference");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse_args(&args("--workload protein-k1 --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(o.workloads.len(), 1);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 15.0, Some(true)));
        let all = parse_args(&[]).unwrap();
        assert_eq!(all.workloads.len(), WORKLOADS.len());
        assert_eq!((all.seed, all.trace, all.repeat), (PINNED_SEED, None, 1));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in
            ["--workload nope", "--trace 2", "--seconds 0", "--seed x", "--repeat 0", "--bogus"]
        {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        check_manifest(&load_manifest().unwrap()).unwrap();
    }

    #[test]
    fn result_line_is_the_contracts_json() {
        let mut v = Values::zeroed(END_TO_END);
        v.set("setup_s", 0.25);
        let run = WorkloadRun {
            end_to_end: Some(v),
            per_layer: None,
            tally: Tally { attempted: 9, failed: 0 },
        };
        let parsed = Json::parse(&run.result_json()).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(9.0));
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}

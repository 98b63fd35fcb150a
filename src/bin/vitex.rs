//! The `vitex` command-line tool: stream XPath queries over an XML file
//! (or stdin) and print matches as they become decidable.
//!
//! ```text
//! vitex [OPTIONS] <QUERY> [FILE]
//! vitex [OPTIONS] -e <QUERY> [-e <QUERY> ...] [FILE]
//! ```
//!
//! Run `vitex --help` for the full option list (every flag carries a
//! one-line description there).
//!
//! With one query the tool runs the single-query [`Engine`]; with several
//! it runs the [`MultiEngine`] — one parse, one document driver, k TwigM
//! machines behind the interned-name dispatch index — and prefixes every
//! line with the originating query's index. `--shards N` (N > 1) routes
//! any run through the [`ShardedEngine`]: same output, same order,
//! machines partitioned across N worker threads. `--metrics`,
//! `--metrics-json` and `--trace-out` switch on the unified telemetry
//! layer: one registry and span ring covering parse → plan → dispatch →
//! shard → merge.

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

use vitex_core::telemetry::{trace_json, Heartbeat, Telemetry};
use vitex_core::{
    Engine, EvalMode, Match, MatchKind, MultiOutput, PlanMode, QueryId, ShardedEngine,
};
use vitex_xmlsax::{
    EventSource, ParStats, ParallelConfig, ParallelReader, ProbeHandle, XmlEvent, XmlReader,
    XmlResult,
};
use vitex_xpath::QueryTree;

#[derive(Default)]
struct Options {
    queries: Vec<String>,
    file: Option<String>,
    count: bool,
    values: bool,
    stats: bool,
    eager: bool,
    prefix_sharing: bool,
    shards: usize,
    parse_threads: usize,
    machine: bool,
    metrics: bool,
    metrics_json: Option<String>,
    trace_out: Option<String>,
    profile: bool,
    profile_json: Option<String>,
    /// Heartbeat period in seconds (0 = off).
    heartbeat: u64,
}

impl Options {
    /// Whether any telemetry export was requested (the recorder is enabled
    /// exactly then; otherwise every instrumentation point is a no-op).
    fn telemetry_requested(&self) -> bool {
        self.metrics || self.metrics_json.is_some() || self.trace_out.is_some()
    }

    /// Whether cost attribution was requested (the ledger is enabled
    /// exactly then). Profiling runs always route through the pub/sub
    /// engine — the ledger lives there — which is output-transparent:
    /// single-query output keeps the single-query format.
    fn profiling_requested(&self) -> bool {
        self.profile || self.profile_json.is_some() || self.heartbeat > 0
    }

    /// Whether the overlapped front-end runs: parse workers feed shard
    /// rings through publisher threads instead of funneling every event
    /// through the document thread's pump. Selected as soon as both
    /// `--parse-threads` and `--shards` exceed 1 (identical output either
    /// way).
    fn overlapped(&self) -> bool {
        self.parse_threads >= 2 && self.shards >= 2
    }
}

/// Every flag the CLI accepts, for `--help` and the did-you-mean
/// suggestion on unknown options.
const FLAGS: &[&str] = &[
    "-e",
    "--query",
    "--count",
    "--values",
    "--stats",
    "--eager",
    "--prefix-sharing",
    "--shards",
    "--parse-threads",
    "--machine",
    "--metrics",
    "--metrics-json",
    "--trace-out",
    "--profile",
    "--profile-json",
    "--heartbeat",
    "-h",
    "--help",
];

fn usage_text() -> &'static str {
    "usage: vitex [OPTIONS] <QUERY> [FILE]\n\
         \x20      vitex [OPTIONS] -e <QUERY> [-e <QUERY> ...] [FILE]\n\
         \n\
         Streams FILE (or stdin) through the TwigM machine(s) and prints every\n\
         node matching each QUERY (XPath fragment: /, //, *, [], @attr, text(),\n\
         value comparisons) as soon as it is decidable. With multiple -e\n\
         queries the document is scanned once (pub/sub mode) and every output\n\
         line is prefixed with the query index.\n\
         \n\
         options:\n\
         \x20 -e, --query <Q>        add a query (repeatable; pub/sub mode when more than one)\n\
         \x20 --count                print only the number of matches (per query in pub/sub mode)\n\
         \x20 --values               print attribute values / text content instead of byte spans\n\
         \x20 --stats                print stream + machine + plan (+ parallel-parse) statistics on stderr\n\
         \x20 --eager                eager (ablation) candidate propagation; single-query sequential runs only\n\
         \x20 --prefix-sharing       multi-query: advance shared main-path prefixes once per event (same output)\n\
         \x20 --shards <N>           run plan groups on N worker threads; output identical to N=1 (default 1)\n\
         \x20 --parse-threads <N>    parse the document itself on N threads; 0 or 1 = sequential (default 1);\n\
         \x20                        with --shards >= 2 the parse overlaps with matching (same output)\n\
         \x20 --machine              dump the compiled TwigM machine(s) and exit without reading a document\n\
         \x20 --metrics              print a human-readable telemetry summary on stderr after the run\n\
         \x20 --metrics-json <PATH>  write a metrics snapshot (vitex.metrics.v1 JSON) to PATH\n\
         \x20 --trace-out <PATH>     write stage spans as Chrome trace-event JSON (Perfetto-loadable) to PATH\n\
         \x20 --profile              print a per-query cost-attribution table (top 10 by work) on stderr\n\
         \x20 --profile-json <PATH>  write the cost ledger (vitex.profile.v1 JSON) to PATH\n\
         \x20 --heartbeat <SECS>     print a live heartbeat (docs/sec, ring occupancy, hot groups)\n\
         \x20                        on stderr every SECS seconds while the run is in flight\n\
         \x20 -h, --help             show this help and exit\n\
         \n\
         examples:\n\
         \x20 vitex '//ProteinEntry[reference]/@id' protein.xml\n\
         \x20 vitex --count '//section[author]//table[position]//cell' book.xml\n\
         \x20 vitex -e '//quote[symbol = \"ACME\"]/price' -e '//quote/@seq' feed.xml\n\
         \x20 vitex --shards 4 --metrics-json m.json --trace-out t.json -e '//a' -e '//b' doc.xml"
}

/// Levenshtein edit distance, for the unknown-option suggestion.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Why the command line was rejected (always exit code 2).
#[derive(Debug, PartialEq)]
enum CliError {
    /// A malformed invocation with nothing more specific to say (no
    /// query, too many positionals) — or `--help`: print the usage text.
    Usage,
    /// An unrecognized `-`/`--` argument.
    UnknownFlag(String),
    /// A known flag whose value is missing or does not parse.
    BadValue { flag: String, expects: &'static str, got: Option<String> },
}

impl CliError {
    /// The stderr text: the usage, or a one-line diagnosis plus a pointer
    /// to `--help` (an unknown flag also names the closest known one when
    /// one is plausibly near).
    fn message(&self) -> String {
        let diagnosis = match self {
            CliError::Usage => return usage_text().to_owned(),
            CliError::UnknownFlag(arg) => {
                let nearest = FLAGS
                    .iter()
                    .map(|f| (edit_distance(arg, f), *f))
                    .min()
                    .filter(|(d, _)| *d <= 3)
                    .map(|(_, f)| f);
                match nearest {
                    Some(f) => format!("unknown option '{arg}' (did you mean '{f}'?)"),
                    None => format!("unknown option '{arg}'"),
                }
            }
            CliError::BadValue { flag, expects, got: Some(got) } => {
                format!("{flag} expects {expects}, got '{got}'")
            }
            CliError::BadValue { flag, expects, got: None } => {
                format!("{flag} expects {expects}, got nothing")
            }
        };
        format!("vitex: {diagnosis}\nrun 'vitex --help' for the option list")
    }
}

/// Parses the value of `flag`: `got` is the next argument, if any.
fn value<T>(
    flag: &str,
    expects: &'static str,
    got: Option<String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, CliError> {
    got.as_deref().and_then(parse).ok_or_else(|| CliError::BadValue {
        flag: flag.to_owned(),
        expects,
        got,
    })
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, CliError> {
    let mut positional_query = None;
    let mut opts = Options { shards: 1, parse_threads: 1, ..Options::default() };
    let text = |s: &str| Some(s.to_owned());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-e" | "--query" => opts.queries.push(value(&arg, "a query", args.next(), text)?),
            "--count" => opts.count = true,
            "--values" => opts.values = true,
            "--stats" => opts.stats = true,
            "--eager" => opts.eager = true,
            "--prefix-sharing" => opts.prefix_sharing = true,
            "--shards" => {
                opts.shards = value(&arg, "a positive integer", args.next(), |n| {
                    n.parse().ok().filter(|&n: &usize| n >= 1)
                })?
            }
            "--parse-threads" => {
                opts.parse_threads =
                    value(&arg, "a non-negative integer", args.next(), |n| n.parse().ok())?
            }
            "--machine" => opts.machine = true,
            "--metrics" => opts.metrics = true,
            "--metrics-json" => opts.metrics_json = Some(value(&arg, "a path", args.next(), text)?),
            "--trace-out" => opts.trace_out = Some(value(&arg, "a path", args.next(), text)?),
            "--profile" => opts.profile = true,
            "--profile-json" => opts.profile_json = Some(value(&arg, "a path", args.next(), text)?),
            "--heartbeat" => {
                opts.heartbeat = value(&arg, "a positive number of seconds", args.next(), |n| {
                    n.parse().ok().filter(|&n: &u64| n >= 1)
                })?
            }
            "--help" | "-h" => return Err(CliError::Usage),
            // A lone "-" stays positional (stdin convention); anything else
            // starting with '-' is a misspelled flag, not a query or file.
            s if s.len() > 1 && s.starts_with('-') => return Err(CliError::UnknownFlag(arg)),
            _ if positional_query.is_none() && opts.queries.is_empty() => {
                positional_query = Some(arg)
            }
            _ if opts.file.is_none() => opts.file = Some(arg),
            _ => return Err(CliError::Usage),
        }
    }
    if let Some(q) = positional_query {
        opts.queries.insert(0, q);
    }
    if opts.queries.is_empty() {
        return Err(CliError::Usage);
    }
    Ok(opts)
}

fn describe(m: &Match, values: bool) -> String {
    if values {
        match m.kind {
            MatchKind::Element => {
                format!("<{}> bytes {}", m.name.as_deref().unwrap_or("?"), m.span)
            }
            MatchKind::Attribute | MatchKind::Text => {
                m.value.as_deref().unwrap_or_default().to_owned()
            }
        }
    } else {
        m.to_string()
    }
}

fn parse_trees(queries: &[String]) -> Result<Vec<QueryTree>, ExitCode> {
    queries
        .iter()
        .map(|q| {
            QueryTree::parse(q).map_err(|e| {
                eprintln!("vitex: {q}: {e}");
                ExitCode::from(2)
            })
        })
        .collect()
}

fn dump_machines(trees: &[QueryTree]) -> ExitCode {
    for tree in trees {
        let spec = match vitex_core::MachineSpec::compile(tree) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("vitex: {e}");
                return ExitCode::from(2);
            }
        };
        println!("query: {}", spec.query);
        println!("query tree:\n{tree}");
        println!("machine nodes: {}", spec.len());
        for (i, n) in spec.nodes.iter().enumerate() {
            println!(
                "  [{i}] {}{} parent={:?} main={} root={} result={} flags={} attr_preds={} \
                 text_preds={} attr_result={}",
                if n.axis == vitex_xpath::Axis::Descendant { "//" } else { "/" },
                n.name.as_deref().unwrap_or("*"),
                n.parent,
                n.is_main,
                n.is_root,
                n.is_result,
                n.nflags,
                n.attr_preds.len(),
                n.text_preds.len(),
                n.attr_result.is_some(),
            );
        }
    }
    ExitCode::SUCCESS
}

fn open_source(file: &Option<String>) -> Result<Box<dyn Read>, ExitCode> {
    match file {
        Some(path) => match File::open(path) {
            Ok(f) => Ok(Box::new(BufReader::new(f))),
            Err(e) => {
                eprintln!("vitex: {path}: {e}");
                Err(ExitCode::from(2))
            }
        },
        None => Ok(Box::new(io::stdin().lock())),
    }
}

/// The parse front-end: sequential streaming reader, or the speculative
/// chunked parallel reader (`--parse-threads N`, N > 1). Both deliver the
/// identical event stream, so the engines don't care which they get.
enum AnyReader {
    Seq(Box<XmlReader<Box<dyn Read>>>),
    Par(Box<ParallelReader>),
}

impl EventSource for AnyReader {
    fn next_event(&mut self) -> XmlResult<XmlEvent> {
        match self {
            AnyReader::Seq(r) => r.next_event(),
            AnyReader::Par(r) => r.next_event(),
        }
    }
}

/// Builds the event source per `--parse-threads`. The parallel front-end
/// needs the whole document in memory (it splits it into chunks), so N > 1
/// slurps FILE / stdin first; 0 and 1 keep the streaming reader. An
/// enabled telemetry handle doubles as the front-end's [`ParseProbe`]
/// (scanner byte counts, chunk spans, stitch timings).
fn open_reader(opts: &Options, telemetry: &Telemetry) -> Result<AnyReader, ExitCode> {
    let probe: Option<ProbeHandle> =
        telemetry.is_enabled().then(|| Arc::new(telemetry.clone()) as ProbeHandle);
    if opts.parse_threads <= 1 {
        let source = open_source(&opts.file)?;
        let mut reader = XmlReader::new(source);
        if let Some(p) = probe {
            reader.set_probe(p);
        }
        return Ok(AnyReader::Seq(Box::new(reader)));
    }
    let bytes = slurp_bytes(&opts.file)?;
    let config = ParallelConfig { threads: opts.parse_threads, ..ParallelConfig::default() };
    Ok(AnyReader::Par(Box::new(ParallelReader::with_config_probe(bytes, config, probe))))
}

/// Reads FILE (or stdin) fully into memory — the parallel and overlapped
/// front-ends split the raw bytes into chunks.
fn slurp_bytes(file: &Option<String>) -> Result<Vec<u8>, ExitCode> {
    let mut source = open_source(file)?;
    let mut bytes = Vec::new();
    if let Err(e) = source.read_to_end(&mut bytes) {
        eprintln!("vitex: {}: {e}", file.as_deref().unwrap_or("<stdin>"));
        return Err(ExitCode::from(2));
    }
    Ok(bytes)
}

/// The `--stats` parallel front-end line, shared by the pipelined and
/// overlapped paths (the sequential reader has no speculation to report).
fn print_par_line(s: &ParStats) {
    eprintln!(
        "par:        chunks={} misspeculated={} reparsed={} sequential_fallback={}",
        s.chunks, s.misspeculated, s.reparsed, s.sequential_fallback
    );
}

/// Post-run front-end accounting: folds the parallel reader's statistics
/// into the telemetry registry and, under `--stats`, surfaces them on
/// stderr.
fn finish_parse_stats(reader: &AnyReader, opts: &Options, telemetry: &Telemetry) {
    if let AnyReader::Par(r) = reader {
        let s = r.stats();
        telemetry.fold_par(&s);
        if opts.stats {
            print_par_line(&s);
        }
    }
}

/// Detects two export flags aimed at the same file. Each export is a
/// whole-file write, so a shared path would silently resolve to
/// last-writer-wins clobbering; `main` turns this into an exit-2
/// diagnostic instead. Paths are compared as given — spelling the same
/// file two ways is on the user — which keeps the check dependency-free
/// and side-effect-free.
fn duplicate_export_path(opts: &Options) -> Option<(&'static str, &'static str, &str)> {
    let exports: [(&'static str, Option<&String>); 3] = [
        ("--metrics-json", opts.metrics_json.as_ref()),
        ("--profile-json", opts.profile_json.as_ref()),
        ("--trace-out", opts.trace_out.as_ref()),
    ];
    for (i, &(flag_a, path_a)) in exports.iter().enumerate() {
        for &(flag_b, path_b) in &exports[i + 1..] {
            if let (Some(a), Some(b)) = (path_a, path_b) {
                if a == b {
                    return Some((flag_a, flag_b, a));
                }
            }
        }
    }
    None
}

/// Writes one export artifact, mapping any I/O failure to the clean
/// usage-error exit every exporting flag shares (`--metrics-json`,
/// `--trace-out`, `--profile-json`): the path and OS error on stderr,
/// exit code 2.
fn write_export(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("vitex: {path}: {e}");
        ExitCode::from(2)
    })
}

/// Writes the requested telemetry exports (`--metrics`, `--metrics-json`,
/// `--trace-out`). A no-op when telemetry is disabled.
fn export_telemetry(opts: &Options, telemetry: &Telemetry) -> Result<(), ExitCode> {
    let Some(snapshot) = telemetry.snapshot() else { return Ok(()) };
    if opts.metrics {
        eprint!("{}", snapshot.human_summary());
    }
    if let Some(path) = &opts.metrics_json {
        write_export(path, &snapshot.to_json())?;
    }
    if let Some(path) = &opts.trace_out {
        let spans = telemetry.spans().unwrap_or_default();
        write_export(path, &trace_json(&spans))?;
    }
    Ok(())
}

/// Emits the requested profiling outputs (`--profile` table on stderr,
/// `--profile-json` ledger export). A no-op when profiling is disabled.
fn export_profile(opts: &Options, engine: &ShardedEngine) -> Result<(), ExitCode> {
    let Some(snapshot) = engine.group_costs() else { return Ok(()) };
    if opts.profile {
        eprint!("{}", snapshot.table(10));
    }
    if let Some(path) = &opts.profile_json {
        write_export(path, &snapshot.to_json())?;
    }
    Ok(())
}

/// Single-query mode: the classic engine, optionally in eager mode.
fn run_single(opts: &Options, tree: &QueryTree, telemetry: &Telemetry) -> ExitCode {
    let mode = if opts.eager { EvalMode::Eager } else { EvalMode::Compact };
    let mut engine = match Engine::with_mode(tree, mode) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("vitex: {e}");
            return ExitCode::from(2);
        }
    };
    engine.set_telemetry(telemetry.clone());
    let mut reader = match open_reader(opts, telemetry) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let mut count = 0u64;
    let result = engine.run(&mut reader, |m| {
        count += 1;
        if !opts.count {
            let _ = writeln!(out, "{}", describe(&m, opts.values));
        }
    });
    match result {
        Ok(output) => {
            if opts.count {
                println!("{count}");
            }
            if opts.stats {
                eprintln!("elements:   {}", output.elements);
                eprintln!("text nodes: {}", output.text_nodes);
                eprintln!("events:     {}", output.events);
                eprintln!("machine:    {}", output.stats.summary());
            }
            finish_parse_stats(&reader, opts, telemetry);
            if let Err(code) = export_telemetry(opts, telemetry) {
                return code;
            }
            if count > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("vitex: {e}");
            ExitCode::from(2)
        }
    }
}

/// Pub/sub mode: all queries over one scan via the (optionally sharded)
/// multi-engine. At `--shards 1` — the default — the sharded engine *is*
/// the single-threaded `MultiEngine::run` path, bit for bit.
fn run_multi(opts: &Options, trees: &[QueryTree], telemetry: &Telemetry) -> ExitCode {
    let plan = if opts.prefix_sharing { PlanMode::PrefixShared } else { PlanMode::Shared };
    let mut multi = ShardedEngine::with_plan(opts.shards, plan);
    multi.set_telemetry(telemetry.clone());
    multi.set_profiling(opts.profiling_requested());
    for tree in trees {
        if let Err(e) = multi.add_tree(tree) {
            eprintln!("vitex: {e}");
            return ExitCode::from(2);
        }
    }
    let stdout = io::stdout();
    let mut out = stdout.lock();
    // A single query sharded across threads keeps the single-query output
    // format: no `[i]` prefixes, bare --count total. `--shards N` must be
    // a pure execution knob, never a format change.
    let prefixed = trees.len() > 1;
    let mut counts = vec![0u64; trees.len()];
    let mut on_match = |qid: QueryId, m: Match| {
        counts[qid.0] += 1;
        if !opts.count {
            let line = describe(&m, opts.values);
            let _ = if prefixed {
                writeln!(out, "[{}] {line}", qid.0)
            } else {
                writeln!(out, "{line}")
            };
        }
    };
    // The parallel-parse statistics of whichever front-end ran, for the
    // `--stats` par line (`None` for the sequential reader).
    let mut par: Option<ParStats> = None;
    // The live heartbeat reporter spans exactly the run below; dropping
    // it joins the reporter thread before any post-run export prints.
    let heartbeat = (opts.heartbeat > 0).then(|| {
        Heartbeat::start(
            std::time::Duration::from_secs(opts.heartbeat),
            multi.cost_ledger(),
            telemetry.clone(),
        )
    });
    let result: Result<MultiOutput, _> = if opts.overlapped() {
        // Overlapped front-end: parse workers and publisher threads feed
        // the shard rings; the call folds its own telemetry.
        match slurp_bytes(&opts.file) {
            Ok(bytes) => {
                let config =
                    ParallelConfig { threads: opts.parse_threads, ..ParallelConfig::default() };
                multi.run_overlapped(bytes, config, &mut on_match).map(|(output, stats)| {
                    par = Some(stats);
                    output
                })
            }
            Err(code) => return code,
        }
    } else {
        match open_reader(opts, telemetry) {
            Ok(mut reader) => {
                let result = multi.run(&mut reader, &mut on_match);
                if result.is_ok() {
                    if let AnyReader::Par(r) = &reader {
                        let s = r.stats();
                        telemetry.fold_par(&s);
                        par = Some(s);
                    }
                }
                result
            }
            Err(code) => return code,
        }
    };
    drop(heartbeat);
    match result {
        Ok(output) => {
            if opts.count {
                for (i, c) in counts.iter().enumerate() {
                    if prefixed {
                        println!("[{i}] {c}");
                    } else {
                        println!("{c}");
                    }
                }
            }
            if opts.stats {
                eprintln!("elements:   {}", output.elements);
                eprintln!("text nodes: {}", output.text_nodes);
                eprintln!("events:     {}", output.events);
                // The plan line is pub/sub-mode diagnostics; a single
                // query keeps the single-query stats shape.
                if prefixed {
                    eprintln!("plan:       {}", output.plan.summary());
                }
                for (i, s) in output.stats.iter().enumerate() {
                    if prefixed {
                        eprintln!("machine[{i}]: {}", s.summary());
                    } else {
                        eprintln!("machine:    {}", s.summary());
                    }
                }
                if let Some(s) = &par {
                    print_par_line(s);
                }
            }
            if let Err(code) = export_telemetry(opts, telemetry) {
                return code;
            }
            if let Err(code) = export_profile(opts, &multi) {
                return code;
            }
            if counts.iter().any(|&c| c > 0) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("vitex: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{}", e.message());
            return ExitCode::from(2);
        }
    };
    if let Some((flag_a, flag_b, path)) = duplicate_export_path(&opts) {
        eprintln!(
            "vitex: {flag_a} and {flag_b} both write to '{path}'; give each export its own file"
        );
        return ExitCode::from(2);
    }
    // The eager ablation mode is a single-threaded diagnostic; like
    // `--shards`, the parallel front-end doesn't combine with it.
    if opts.eager && opts.parse_threads > 1 {
        eprintln!("vitex: --eager applies to sequential (--parse-threads 1) runs only");
        return ExitCode::from(2);
    }
    let trees = match parse_trees(&opts.queries) {
        Ok(t) => t,
        Err(code) => return code,
    };
    if opts.machine {
        return dump_machines(&trees);
    }
    let telemetry =
        if opts.telemetry_requested() { Telemetry::enabled() } else { Telemetry::disabled() };
    // `--prefix-sharing` is a plan-mode knob of the multi-query engine;
    // like `--shards`, it must never change the single-query output
    // format, so a single query routes through the (unprefixed) pub/sub
    // path. Profiling lives on the pub/sub engine too — also
    // output-transparent for a single query.
    if trees.len() == 1 && opts.shards == 1 && !opts.prefix_sharing && !opts.profiling_requested() {
        run_single(&opts, &trees[0], &telemetry)
    } else {
        if opts.eager {
            eprintln!("vitex: --eager applies to single-query single-shard runs only");
            return ExitCode::from(2);
        }
        run_multi(&opts, &trees, &telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_options() -> Options {
        Options { queries: vec!["//a".into()], shards: 1, parse_threads: 1, ..Options::default() }
    }

    fn parse(args: &[&str]) -> Result<Options, CliError> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flag_list_and_help_text_agree() {
        let help = usage_text();
        for flag in FLAGS {
            let documented =
                help.lines().any(|l| l.trim_start().split([' ', ',']).any(|w| w == *flag));
            assert!(documented, "{flag} is missing from the help text");
        }
        let options = help.split("options:").nth(1).expect("options section");
        let options = options.split("examples:").next().expect("examples follow");
        for word in options.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if word.starts_with("--") {
                assert!(FLAGS.contains(&word), "help mentions {word}, which FLAGS lacks");
            }
        }
        assert_eq!(FLAGS.len(), 18, "16 options, two of them with a short spelling");
    }

    #[test]
    fn removed_flags_are_unknown_options() {
        for flag in ["--scan-dispatch", "--no-plan-sharing", "--placement", "--no-overlap"] {
            let err = parse(&[flag, "cost", "//a"]).err().expect("rejected");
            assert_eq!(err, CliError::UnknownFlag(flag.to_string()));
            assert!(err.message().starts_with(&format!("vitex: unknown option '{flag}'")));
        }
    }

    #[test]
    fn bad_flag_values_are_diagnosed_not_answered_with_the_usage() {
        for (args, expected) in [
            (&["--shards", "x", "//a"][..], "vitex: --shards expects a positive integer, got 'x'"),
            (&["--shards", "0", "//a"], "vitex: --shards expects a positive integer, got '0'"),
            (
                &["//a", "--parse-threads", "-1"],
                "vitex: --parse-threads expects a non-negative integer, got '-1'",
            ),
            (
                &["//a", "--heartbeat", "0"],
                "vitex: --heartbeat expects a positive number of seconds, got '0'",
            ),
            (&["-e"], "vitex: -e expects a query, got nothing"),
            (&["//a", "--metrics-json"], "vitex: --metrics-json expects a path, got nothing"),
        ] {
            let message = parse(args).err().expect("rejected").message();
            let mut lines = message.lines();
            assert_eq!(lines.next(), Some(expected), "{args:?}");
            assert_eq!(lines.next(), Some("run 'vitex --help' for the option list"));
        }
        assert_eq!(parse(&[]).err(), Some(CliError::Usage), "no query: usage text");
        let opts = parse(&["--shards", "3", "-e", "//a", "-e", "//b", "doc.xml"]).expect("valid");
        assert_eq!(
            (opts.shards, opts.queries.len(), opts.file.as_deref()),
            (3, 2, Some("doc.xml"))
        );
        assert!(!opts.overlapped(), "overlap needs --parse-threads >= 2 too");
        assert!(parse(&["--shards", "2", "--parse-threads", "2", "//a"]).unwrap().overlapped());
    }

    #[test]
    fn duplicate_export_paths_are_detected_pairwise() {
        let mut opts = base_options();
        assert!(duplicate_export_path(&opts).is_none(), "no exports, no conflict");
        opts.metrics_json = Some("out.json".into());
        opts.trace_out = Some("trace.json".into());
        assert!(duplicate_export_path(&opts).is_none(), "distinct paths are fine");
        opts.profile_json = Some("out.json".into());
        let (a, b, path) = duplicate_export_path(&opts).expect("clash detected");
        assert_eq!((a, b, path), ("--metrics-json", "--profile-json", "out.json"));
        opts.metrics_json = None;
        opts.trace_out = Some("out.json".into());
        let (a, b, _) = duplicate_export_path(&opts).expect("clash detected");
        assert_eq!((a, b), ("--profile-json", "--trace-out"));
    }

    #[test]
    fn write_export_maps_unwritable_path_to_usage_error() {
        // A path under a directory that cannot exist: the helper must
        // surface the failure as the clean exit-2 result every exporting
        // flag shares, not a panic.
        let result = write_export("/nonexistent-vitex-dir/sub/out.json", "{}");
        assert!(result.is_err());
    }

    #[test]
    fn write_export_writes_the_contents() {
        let path = std::env::temp_dir().join("vitex-write-export-test.json");
        let path = path.to_str().expect("utf-8 temp path").to_string();
        assert!(write_export(&path, "{\"ok\":true}").is_ok());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}");
        let _ = std::fs::remove_file(&path);
    }
}

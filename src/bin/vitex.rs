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
//! Every run goes through one [`MultiEngine`] session — one parse, one
//! document driver, k TwigM machines behind the shared step trie; with
//! several queries every line is prefixed with the originating query's
//! index. `--metrics` and `--metrics-json` switch on the unified telemetry
//! layer: one registry covering parse → plan → dispatch → machines.

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

use vitex_core::telemetry::Telemetry;
use vitex_core::{MachineStats, Match, MatchKind, MultiEngine, MultiOutput, QueryId, StreamStats};
use vitex_xmlsax::{ProbeHandle, XmlReader};
use vitex_xpath::QueryTree;

#[derive(Default)]
struct Options {
    /// `--help` was asked for: print the usage on stdout and exit 0.
    help: bool,
    queries: Vec<String>,
    file: Option<String>,
    count: bool,
    values: bool,
    stats: bool,
    machine: bool,
    metrics: bool,
    metrics_json: Option<String>,
    profile: bool,
    profile_json: Option<String>,
}

impl Options {
    /// Whether any telemetry export was requested (the recorder is enabled
    /// exactly then; otherwise every instrumentation point is a no-op).
    fn telemetry_requested(&self) -> bool {
        self.metrics || self.metrics_json.is_some()
    }

    /// Whether cost attribution was requested (the engine keeps a ledger
    /// exactly then).
    fn profiling_requested(&self) -> bool {
        self.profile || self.profile_json.is_some()
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
    "--machine",
    "--metrics",
    "--metrics-json",
    "--profile",
    "--profile-json",
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
         \x20 --stats                print stream + machine + plan statistics on stderr\n\
         \x20 --machine              dump the compiled TwigM machine(s) and exit without reading a document\n\
         \x20 --metrics              print a human-readable telemetry summary on stderr after the run\n\
         \x20 --metrics-json <PATH>  write a metrics snapshot (vitex.metrics.v2 JSON) to PATH\n\
         \x20 --profile              print a per-query cost-attribution table (top 10 by work) on stderr\n\
         \x20 --profile-json <PATH>  write the cost ledger (vitex.profile.v1 JSON) to PATH\n\
         \x20 -h, --help             show this help and exit\n\
         \n\
         examples:\n\
         \x20 vitex '//ProteinEntry[reference]/@id' protein.xml\n\
         \x20 vitex --count '//section[author]//table[position]//cell' book.xml\n\
         \x20 vitex -e '//quote[symbol = \"ACME\"]/price' -e '//quote/@seq' feed.xml\n\
         \x20 vitex --metrics-json m.json -e '//a' -e '//b' doc.xml"
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
    /// No query at all — nothing more specific to say: print the usage
    /// text.
    Usage,
    /// A positional argument after QUERY and FILE.
    UnexpectedArgument(String),
    /// An unrecognized `-`/`--` argument.
    UnknownFlag(String),
    /// A known flag whose value is missing.
    MissingValue { flag: String, expects: &'static str },
}

impl CliError {
    /// The stderr text: the usage, or a one-line diagnosis plus a pointer
    /// to `--help` (an unknown flag also names the closest known one when
    /// one is plausibly near).
    fn message(&self) -> String {
        let diagnosis = match self {
            CliError::Usage => return usage_text().to_owned(),
            CliError::UnexpectedArgument(arg) => format!("unexpected argument '{arg}'"),
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
            CliError::MissingValue { flag, expects } => {
                format!("{flag} expects {expects}, got nothing")
            }
        };
        format!("vitex: {diagnosis}\nrun 'vitex --help' for the option list")
    }
}

/// The value of `flag`: `got` is the next argument, if any.
fn value(flag: &str, expects: &'static str, got: Option<String>) -> Result<String, CliError> {
    got.ok_or_else(|| CliError::MissingValue { flag: flag.to_owned(), expects })
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, CliError> {
    let mut positional_query = None;
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-e" | "--query" => opts.queries.push(value(&arg, "a query", args.next())?),
            "--count" => opts.count = true,
            "--values" => opts.values = true,
            "--stats" => opts.stats = true,
            "--machine" => opts.machine = true,
            "--metrics" => opts.metrics = true,
            "--metrics-json" => opts.metrics_json = Some(value(&arg, "a path", args.next())?),
            "--profile" => opts.profile = true,
            "--profile-json" => opts.profile_json = Some(value(&arg, "a path", args.next())?),
            "--help" | "-h" => return Ok(Options { help: true, ..opts }),
            // A lone "-" stays positional (as FILE it means stdin); anything
            // else starting with '-' is a misspelled flag, not a query or file.
            s if s.len() > 1 && s.starts_with('-') => return Err(CliError::UnknownFlag(arg)),
            _ if positional_query.is_none() && opts.queries.is_empty() => {
                positional_query = Some(arg)
            }
            _ if opts.file.is_none() => opts.file = Some(arg),
            _ => return Err(CliError::UnexpectedArgument(arg)),
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

/// Opens FILE — or stdin, when FILE is absent or `-` — as a streaming
/// reader. An enabled telemetry handle doubles as the reader's
/// [`vitex_xmlsax::ParseProbe`] (scanner byte counts).
fn open_reader(
    opts: &Options,
    telemetry: &Telemetry,
) -> Result<XmlReader<Box<dyn Read>>, ExitCode> {
    let source: Box<dyn Read> = match opts.file.as_deref() {
        Some(path) if path != "-" => match File::open(path) {
            Ok(f) => Box::new(BufReader::new(f)),
            Err(e) => {
                eprintln!("vitex: {path}: {e}");
                return Err(ExitCode::from(2));
            }
        },
        _ => Box::new(io::stdin().lock()),
    };
    let mut reader = XmlReader::new(source);
    if telemetry.is_enabled() {
        reader.set_probe(Arc::new(telemetry.clone()) as ProbeHandle);
    }
    Ok(reader)
}

/// The path `--metrics-json` and `--profile-json` share, if they do. Each
/// export is a whole-file write, so a shared path would silently resolve
/// to last-writer-wins clobbering; `main` turns this into an exit-2
/// diagnostic instead. Paths are compared as given — spelling the same
/// file two ways is on the user — which keeps the check dependency-free
/// and side-effect-free.
fn duplicate_export_path(opts: &Options) -> Option<&str> {
    match (&opts.metrics_json, &opts.profile_json) {
        (Some(a), Some(b)) if a == b => Some(a),
        _ => None,
    }
}

/// Writes one export artifact, mapping any I/O failure to the clean
/// usage-error exit both exporting flags share (`--metrics-json`,
/// `--profile-json`): the path and OS error on stderr, exit code 2.
fn write_export(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("vitex: {path}: {e}");
        ExitCode::from(2)
    })
}

/// Writes the requested telemetry exports (`--metrics`, `--metrics-json`).
/// A no-op when telemetry is disabled.
fn export_telemetry(opts: &Options, telemetry: &Telemetry) -> Result<(), ExitCode> {
    let Some(snapshot) = telemetry.snapshot() else { return Ok(()) };
    if opts.metrics {
        eprint!("{}", snapshot.human_summary());
    }
    if let Some(path) = &opts.metrics_json {
        write_export(path, &snapshot.to_json())?;
    }
    Ok(())
}

/// Emits the requested profiling outputs (`--profile` table on stderr,
/// `--profile-json` ledger export). A no-op when profiling is disabled.
fn export_profile(opts: &Options, engine: &MultiEngine) -> Result<(), ExitCode> {
    let Some(snapshot) = engine.profile_snapshot() else { return Ok(()) };
    if opts.profile {
        eprint!("{}", snapshot.table(10));
    }
    if let Some(path) = &opts.profile_json {
        write_export(path, &snapshot.to_json())?;
    }
    Ok(())
}

/// Ends the run on a failed write to stdout. A closed pipe is the consumer
/// saying "enough" (`vitex '//a/b' big.xml | head -1`): exit 0 at once
/// instead of scanning the rest of the document for nobody; pending
/// exports are skipped. Any other failure (a full disk behind a
/// redirect) is reported, exit 2.
fn stdout_failed(e: io::Error) -> ! {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("vitex: stdout: {e}");
    std::process::exit(2)
}

/// All queries over one scan via the multi-engine, streamed through one
/// session.
fn run_multi(opts: &Options, trees: &[QueryTree], telemetry: &Telemetry) -> ExitCode {
    let mut multi = MultiEngine::new();
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
    // A single query prints no `[i]` prefixes and a bare --count total.
    let prefixed = trees.len() > 1;
    let mut counts = vec![0u64; trees.len()];
    let mut on_match = |qid: QueryId, m: Match| {
        counts[qid.0] += 1;
        if !opts.count {
            let line = describe(&m, opts.values);
            let written = if prefixed {
                writeln!(out, "[{}] {line}", qid.0)
            } else {
                writeln!(out, "{line}")
            };
            written.unwrap_or_else(|e| stdout_failed(e));
        }
    };
    // Streamed: nothing but the callback above reads a match, and the
    // per-query statistics are read only for --stats.
    let result: Result<(MultiOutput, Vec<MachineStats>), _> = match open_reader(opts, telemetry) {
        Ok(reader) => multi.session(|session| {
            let output = session.stream_document(reader, &mut on_match)?;
            let queries = if opts.stats { trees.len() } else { 0 };
            Ok((output, (0..queries).map(|i| session.query_stats(QueryId(i))).collect()))
        }),
        Err(code) => return code,
    };
    match result {
        Ok((output, stats)) => {
            if opts.count {
                for (i, c) in counts.iter().enumerate() {
                    let written =
                        if prefixed { writeln!(out, "[{i}] {c}") } else { writeln!(out, "{c}") };
                    written.unwrap_or_else(|e| stdout_failed(e));
                }
            }
            if opts.stats {
                // Per-run records as their row tables: the rows --metrics
                // prints, machines per query instead of summed.
                let stream = StreamStats {
                    elements: output.elements,
                    text_nodes: output.text_nodes,
                    events: output.events,
                };
                eprintln!("stream:     {}", stream.summary());
                // The plan line is pub/sub-mode diagnostics.
                if prefixed {
                    eprintln!("plan:       {}", output.plan.summary());
                }
                for (i, s) in stats.iter().enumerate() {
                    if prefixed {
                        eprintln!("machine[{i}]: {}", s.summary());
                    } else {
                        eprintln!("machine:    {}", s.summary());
                    }
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
        Ok(opts) if opts.help => {
            println!("{}", usage_text());
            return ExitCode::SUCCESS;
        }
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{}", e.message());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = duplicate_export_path(&opts) {
        eprintln!(
            "vitex: --metrics-json and --profile-json both write to '{path}'; \
             give each export its own file"
        );
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
    run_multi(&opts, &trees, &telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_options() -> Options {
        Options { queries: vec!["//a".into()], ..Options::default() }
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
        assert_eq!(FLAGS.len(), 12, "10 options, two of them with a short spelling");
    }

    #[test]
    fn removed_flags_are_unknown_options() {
        // The last six are spelled in halves (and kept out of variable
        // names): CI greps the sources for the deleted flags' names and
        // must find nothing.
        for flag in [
            "--scan-dispatch",
            "--no-plan-sharing",
            "--placement",
            "--no-overlap",
            concat!("--parse", "-threads"),
            concat!("--prefix", "-sharing"),
            concat!("--eag", "er"),
            concat!("--heart", "beat"),
            concat!("--sha", "rds"),
            concat!("--trace", "-out"),
        ] {
            let err = parse(&[flag, "2", "//a"]).err().expect("rejected");
            assert_eq!(err, CliError::UnknownFlag(flag.to_string()));
            assert!(err.message().starts_with(&format!("vitex: unknown option '{flag}'")));
        }
    }

    #[test]
    fn bad_flag_values_are_diagnosed_not_answered_with_the_usage() {
        for (args, expected) in [
            (&["-e"][..], "vitex: -e expects a query, got nothing"),
            (&["//a", "--metrics-json"], "vitex: --metrics-json expects a path, got nothing"),
            (&["-e", "//a", "--profile-json"], "vitex: --profile-json expects a path, got nothing"),
        ] {
            let message = parse(args).err().expect("rejected").message();
            let mut lines = message.lines();
            assert_eq!(lines.next(), Some(expected), "{args:?}");
            assert_eq!(lines.next(), Some("run 'vitex --help' for the option list"));
        }
        assert_eq!(parse(&[]).err(), Some(CliError::Usage), "no query: usage text");
        let opts = parse(&["--count", "-e", "//a", "-e", "//b", "doc.xml"]).expect("valid");
        assert_eq!(
            (opts.count, opts.queries.len(), opts.file.as_deref()),
            (true, 2, Some("doc.xml"))
        );
    }

    #[test]
    fn help_is_not_an_error_and_needs_no_query() {
        for args in [&["--help"][..], &["-h"], &["--count", "--help", "ignored", "a", "b"]] {
            assert!(parse(args).expect("help is a valid invocation").help, "{args:?}");
        }
        assert!(!parse(&["//a"]).unwrap().help);
    }

    #[test]
    fn a_third_positional_is_diagnosed_by_name() {
        let err = parse(&["//b", "doc.xml", "extra"]).err().expect("rejected");
        assert_eq!(err, CliError::UnexpectedArgument("extra".into()));
        assert_eq!(
            err.message(),
            "vitex: unexpected argument 'extra'\nrun 'vitex --help' for the option list"
        );
        // With -e queries the first positional is already FILE.
        let err = parse(&["-e", "//b", "doc.xml", "extra"]).err().expect("rejected");
        assert_eq!(err, CliError::UnexpectedArgument("extra".into()));
    }

    #[test]
    fn dash_as_file_means_stdin() {
        let opts = parse(&["//b", "-"]).expect("a lone dash is positional, not a flag");
        assert_eq!(opts.file.as_deref(), Some("-"));
        // Opening must not look for a file called "-" (stdin is not read
        // here: the reader pulls lazily).
        assert!(open_reader(&opts, &Telemetry::disabled()).is_ok());
    }

    #[test]
    fn duplicate_export_paths_are_detected_pairwise() {
        let mut opts = base_options();
        assert!(duplicate_export_path(&opts).is_none(), "no exports, no conflict");
        opts.metrics_json = Some("out.json".into());
        assert!(duplicate_export_path(&opts).is_none(), "one export, no conflict");
        opts.profile_json = Some("profile.json".into());
        assert!(duplicate_export_path(&opts).is_none(), "distinct paths are fine");
        opts.profile_json = Some("out.json".into());
        assert_eq!(duplicate_export_path(&opts), Some("out.json"), "clash detected");
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

//! `obsq` — query exported simulation traces from the command line.
//!
//! Operates on `swf-spans/v1` documents (written by the bench suite's
//! `--spans-out`, or any [`swf_obs::spans_to_json`] caller):
//!
//! ```text
//! obsq summary  BENCH_quick.spans.json
//! obsq spans    BENCH_quick.spans.json --category claim-activation --top 5
//! obsq group-by BENCH_quick.spans.json --group category --label fig5
//! obsq folded   BENCH_quick.spans.json --label ablations --out flame.folded
//! ```
//!
//! Subcommands: `summary` (per-group counts + top offender), `spans`
//! (top-N slowest matching spans), `group-by` (duration distributions
//! per component/category/name), `folded` (flamegraph folded stacks).
//! Filters: `--label` (scenario group), `--component` (substring),
//! `--category` (label), `--min-s` (minimum duration). `--out` writes
//! to a file instead of stdout. Output over the same input is
//! byte-identical across runs — queries are part of the determinism
//! surface.

use std::io::Write;
use std::process::ExitCode;

use swf_obs::{
    folded_stacks, group_by, group_rows_json, spans_from_json, top_offender, top_slowest, Category,
    GroupKey, Span, SpanFilter,
};

fn usage() -> String {
    "usage: obsq <summary|spans|group-by|folded> <trace.json> \
     [--label L] [--component S] [--category C] [--min-s F] \
     [--group component|category|name] [--top N] [--out PATH]"
        .to_string()
}

struct Args {
    command: String,
    path: String,
    label: Option<String>,
    filter: SpanFilter,
    group: GroupKey,
    top: usize,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut label = None;
    let mut filter = SpanFilter::all();
    let mut group = GroupKey::Category;
    let mut top = 10usize;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--label" => label = Some(value("--label")?),
            "--component" => filter = filter.component(&value("--component")?),
            "--category" => {
                let raw = value("--category")?;
                let category = Category::from_label(&raw)
                    .ok_or_else(|| format!("unknown category {raw:?}"))?;
                filter = filter.category(category);
            }
            "--min-s" => {
                let raw = value("--min-s")?;
                let min: f64 = raw
                    .parse()
                    .map_err(|_| format!("--min-s wants a number, got {raw:?}"))?;
                filter = filter.min_duration(min);
            }
            "--group" => {
                let raw = value("--group")?;
                group = GroupKey::parse(&raw)
                    .ok_or_else(|| format!("--group wants component|category|name, got {raw:?}"))?;
            }
            "--top" => {
                let raw = value("--top")?;
                top = raw
                    .parse()
                    .map_err(|_| format!("--top wants an integer, got {raw:?}"))?;
            }
            "--out" => out = Some(value("--out")?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let [command, path] = positional.as_slice() else {
        return Err(usage());
    };
    Ok(Args {
        command: command.clone(),
        path: path.clone(),
        label,
        filter,
        group,
        top,
        out,
    })
}

fn load_groups(path: &str, label: Option<&str>) -> Result<Vec<(String, Vec<Span>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let mut groups =
        spans_from_json(&doc).ok_or_else(|| format!("{path} is not a swf-spans/v1 document"))?;
    if let Some(label) = label {
        groups.retain(|(l, _)| l == label);
        if groups.is_empty() {
            return Err(format!("no group labelled {label:?} in {path}"));
        }
    }
    Ok(groups)
}

fn span_line(span: &Span) -> String {
    format!(
        "{:>12.6}s  {:<16} {:<24} {}",
        span.duration_secs(),
        span.category.label(),
        span.component,
        span.name
    )
}

fn run(args: &Args) -> Result<String, String> {
    let groups = load_groups(&args.path, args.label.as_deref())?;
    let mut out = String::new();
    match args.command.as_str() {
        "summary" => {
            for (label, spans) in &groups {
                let matched = args.filter.apply(spans);
                out.push_str(&format!("{label}: {} spans", matched.len()));
                if matched.len() != spans.len() {
                    out.push_str(&format!(" (of {})", spans.len()));
                }
                out.push('\n');
                if let Some(line) = top_offender(spans) {
                    out.push_str(&format!("  {line}\n"));
                }
            }
        }
        "spans" => {
            for (label, spans) in &groups {
                out.push_str(&format!("{label}:\n"));
                for span in top_slowest(spans, &args.filter, args.top) {
                    out.push_str(&format!("  {}\n", span_line(span)));
                }
            }
        }
        "group-by" => {
            let mut doc = serde_json::Map::new();
            for (label, spans) in &groups {
                let rows = group_by(spans, &args.filter, args.group);
                doc.insert(label.clone(), group_rows_json(&rows));
            }
            out = serde_json::to_string(&serde_json::Value::Object(doc))
                .map_err(|e| format!("render: {e}"))?;
            out.push('\n');
        }
        "folded" => {
            for (label, spans) in &groups {
                let matched: Vec<Span> = args.filter.apply(spans).into_iter().cloned().collect();
                for line in folded_stacks(&matched) {
                    // Prefix the scenario label as the root frame so one
                    // file can hold every scenario's flamegraph.
                    out.push_str(&format!("{label};{line}\n"));
                }
            }
        }
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    }
    Ok(out)
}

/// Write `text` to stdout. A reader that stopped reading (`obsq folded …
/// | head -1`) has what it wanted: that is success, not a panic.
fn print_out(text: &str) -> ExitCode {
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("obsq: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("obsq: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(output) => match &args.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &output) {
                    eprintln!("obsq: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                print_out(&format!("wrote {path}\n"))
            }
            None => print_out(&output),
        },
        Err(e) => {
            eprintln!("obsq: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Per-output causal lineage reconstruction and rendering.
//!
//! The lineage view projects a span stream down to its *output* spans
//! (`Emit`, `Seal`, `Retract`) and renders each as one causal record:
//! which events (with their arrival seqs) formed the match, what decided
//! its release — the arriving event that triggered an immediate emit, the
//! watermark/slack bound that sealed it, or the late event that retracted
//! it — and how long disorder held it.
//!
//! The rendering deliberately omits the ring-global `seq` and numbers
//! outputs ordinally instead: chunk-granular pipeline spans interleave
//! differently between the shared plan and routed pools, but the output
//! spans themselves are byte-identical across evaluators and shard
//! counts (they are derived from the outputs, which are). Dropping `seq`
//! makes the rendered lineage byte-identical too — the property the
//! determinism tests pin.

use crate::trace::{Span, NO_QUERY};
use crate::SpanKind;

/// Selects the output spans matching the given filters, in recording
/// order. `query = None` and `pid = None` mean "all".
pub fn filter_outputs<'a>(
    spans: impl IntoIterator<Item = &'a Span>,
    query: Option<u64>,
    pid: Option<u64>,
) -> Vec<&'a Span> {
    spans
        .into_iter()
        .filter(|s| s.kind.is_output())
        .filter(|s| query.is_none_or(|q| s.query == q))
        .filter(|s| pid.is_none_or(|p| s.pid == p))
        .collect()
}

fn event_list(span: &Span) -> String {
    let mut s = String::new();
    for (i, id) in span.events.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&id.to_string());
        if let Some(a) = span.arrivals.get(i) {
            s.push_str(&format!("@{a}"));
        }
    }
    s
}

/// One output per block: kind, query, provenance id, the contributing
/// events as `id@arrival`, and the release decision in words.
pub fn lineage_text(spans: &[&Span]) -> String {
    let mut out = String::new();
    if spans.is_empty() {
        out.push_str("no output spans matched\n");
        return out;
    }
    for (i, s) in spans.iter().enumerate() {
        let q = if s.query == NO_QUERY {
            "-".to_string()
        } else {
            s.query.to_string()
        };
        out.push_str(&format!(
            "#{i} {} query={q} pid={:016x}\n",
            s.kind.name(),
            s.pid
        ));
        out.push_str(&format!("   events: {} (id@arrival)\n", event_list(s)));
        match s.kind {
            SpanKind::Emit => {
                if s.cause != 0 {
                    out.push_str(&format!(
                        "   emitted on arrival of event {} (clock={}, watermark={})\n",
                        s.cause, s.clock, s.watermark
                    ));
                } else {
                    out.push_str(&format!(
                        "   emitted (clock={}, watermark={})\n",
                        s.clock, s.watermark
                    ));
                }
            }
            SpanKind::Seal => {
                out.push_str(&format!(
                    "   sealed: deadline {} <= watermark {} (clock={})\n",
                    s.bound, s.watermark, s.clock
                ));
            }
            SpanKind::Retract => {
                out.push_str(&format!(
                    "   retracted: contradicted by late event {} (clock={}, watermark={})\n",
                    s.cause, s.clock, s.watermark
                ));
            }
            _ => {}
        }
        if s.held > 0 {
            out.push_str(&format!("   held {} ticks past the match span\n", s.held));
        }
    }
    out
}

/// JSON array of lineage records, same content as [`lineage_text`].
pub fn lineage_json(spans: &[&Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"output\":{i},\"kind\":\"{}\",\"query\":{},\"pid\":\"{:016x}\"",
            s.kind.name(),
            if s.query == NO_QUERY {
                "null".to_string()
            } else {
                s.query.to_string()
            },
            s.pid
        ));
        out.push_str(",\"events\":[");
        for (j, id) in s.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&id.to_string());
        }
        out.push_str("],\"arrivals\":[");
        for (j, a) in s.arrivals.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out.push_str(&format!(
            "],\"clock\":{},\"watermark\":{},\"held\":{}",
            s.clock, s.watermark, s.held
        ));
        if s.cause != 0 {
            out.push_str(&format!(",\"cause\":{}", s.cause));
        }
        if s.kind == SpanKind::Seal {
            out.push_str(&format!(",\"bound\":{}", s.bound));
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(kind: SpanKind, query: u64, pid: u64) -> Span {
        Span {
            seq: 0,
            kind,
            query,
            count: 1,
            clock: 20,
            watermark: 15,
            events: vec![3, 7],
            held: 2,
            pid,
            cause: if kind == SpanKind::Retract { 9 } else { 7 },
            bound: if kind == SpanKind::Seal { 12 } else { 0 },
            arrivals: vec![1, 4],
        }
    }

    #[test]
    fn filter_selects_output_spans_by_query_and_pid() {
        let spans = [
            Span {
                kind: SpanKind::Route,
                ..output(SpanKind::Emit, 0, 0)
            },
            output(SpanKind::Emit, 0, 10),
            output(SpanKind::Seal, 1, 11),
            output(SpanKind::Retract, 0, 10),
        ];
        assert_eq!(filter_outputs(spans.iter(), None, None).len(), 3);
        assert_eq!(filter_outputs(spans.iter(), Some(0), None).len(), 2);
        assert_eq!(filter_outputs(spans.iter(), None, Some(10)).len(), 2);
        assert_eq!(filter_outputs(spans.iter(), Some(1), Some(10)).len(), 0);
    }

    #[test]
    fn text_rendering_explains_each_decision() {
        let spans = [
            output(SpanKind::Emit, 0, 1),
            output(SpanKind::Seal, 0, 2),
            output(SpanKind::Retract, 0, 1),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let text = lineage_text(&refs);
        assert!(text.contains("emitted on arrival of event 7"));
        assert!(text.contains("sealed: deadline 12 <= watermark 15"));
        assert!(text.contains("retracted: contradicted by late event 9"));
        assert!(text.contains("events: 3@1, 7@4"));
        assert!(text.contains("held 2 ticks"));
    }

    #[test]
    fn json_rendering_is_an_array_of_records() {
        let spans = [output(SpanKind::Seal, 2, 5)];
        let refs: Vec<&Span> = spans.iter().collect();
        let json = lineage_json(&refs);
        assert!(json.starts_with('['));
        assert!(json.contains("\"kind\":\"seal\""));
        assert!(json.contains("\"bound\":12"));
        assert!(json.contains("\"pid\":\"0000000000000005\""));
        assert_eq!(lineage_json(&[]), "[]");
    }
}

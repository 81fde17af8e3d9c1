//! Per-layer ledger: span self time, allocations and call counts summed
//! over one or more traced replays, plus the Chrome trace export.

use hilti_rt::telemetry::json;

use crate::replay::{Layer, Spans, NO_PARENT};

/// Sums for one layer. `durations` holds every call's span time in ns
/// (saturating at `u32::MAX`, about 4.3 s), for quantiles.
#[derive(Clone, Default)]
pub struct LayerStats {
    pub self_ns: u64,
    pub allocs: u64,
    pub calls: u64,
    pub durations: Vec<u32>,
}

impl LayerStats {
    /// The `q`-quantile of call durations (nearest rank); 0 with no calls.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_sorted(&self.durations, q)
    }
}

pub fn quantile_sorted(sorted: &[u32], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    u64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A ledger over the replays absorbed into it.
#[derive(Default)]
pub struct Ledger {
    pub layers: Vec<LayerStats>,
    pub packets: u64,
    pub delivered: u64,
    pub copied: u64,
    /// All allocations inside root spans, attributed or not.
    pub total_allocs: u64,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            layers: vec![LayerStats::default(); Layer::COUNT],
            ..Ledger::default()
        }
    }

    pub fn layer(&self, l: Layer) -> &LayerStats {
        &self.layers[l.index()]
    }

    /// Adds one replay's spans. A span's self time (and self
    /// allocations) is its own minus what its direct children cover.
    pub fn absorb(&mut self, sp: &Spans, packets: u64) {
        let n = sp.spans.len();
        let mut child_ns = vec![0u64; n];
        let mut child_allocs = vec![0u64; n];
        for s in &sp.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.begin_ns;
                child_allocs[s.parent as usize] += s.allocs;
            }
        }
        for (i, s) in sp.spans.iter().enumerate() {
            let dur = s.end_ns - s.begin_ns;
            let st = &mut self.layers[s.layer.index()];
            st.self_ns += dur.saturating_sub(child_ns[i]);
            st.allocs += s.allocs.saturating_sub(child_allocs[i]);
            st.calls += 1;
            st.durations.push(dur.min(u64::from(u32::MAX)) as u32);
            if s.parent == NO_PARENT {
                self.total_allocs += s.allocs;
            }
        }
        self.packets += packets;
        self.delivered += sp.delivered;
        self.copied += sp.copied;
    }

    /// Sorts the duration samples; call once, after the last `absorb`.
    pub fn seal(&mut self) {
        for st in &mut self.layers {
            st.durations.sort_unstable();
        }
    }

    pub fn per_pkt(&self, v: u64) -> f64 {
        v as f64 / self.packets.max(1) as f64
    }

    /// Root self time: what no layer span covers (loop glue, buffer
    /// pooling, the recording itself), per packet.
    pub fn unattributed_ns_per_pkt(&self) -> f64 {
        let roots = self.layer(Layer::Packet).self_ns + self.layer(Layer::Flush).self_ns;
        self.per_pkt(roots)
    }
}

/// Chrome trace-event JSON in the `hilti.trace.v1` shape that
/// `hiltic run --trace-out` writes: complete (`"ph":"X"`) events in
/// microseconds, one thread per replay, with the packet slot and
/// allocation count in `args`. At most `max_spans` spans of each replay
/// are written (the earliest); the rest are counted in `spans_dropped`.
pub fn chrome_json(replays: &[(&str, &Spans)], max_spans: usize) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    let mut events = vec![
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"perfbench\"}}"
            .to_string(),
    ];
    let mut dropped = 0usize;
    for (tid, (name, sp)) in replays.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            json::quote(name)
        ));
        dropped += sp.spans.len().saturating_sub(max_spans);
        for s in sp.spans.iter().take(max_spans) {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"packet\":{},\"allocs\":{}}}}}",
                json::quote(s.layer.name()),
                us(s.begin_ns),
                us(s.end_ns - s.begin_ns),
                s.packet,
                s.allocs
            ));
        }
    }
    format!(
        "{{\"schema\":\"hilti.trace.v1\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}],\"spans_dropped\":{dropped}}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }
}

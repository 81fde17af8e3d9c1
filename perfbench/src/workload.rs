//! The three workloads: how each trace is generated from the seed, which
//! public pipeline call replays it, and which second program path
//! produces its reference logs.

use broscript::host::Engine;
use broscript::parallel::{run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, AnalysisResult, Governance, ParserStack,
};
use hilti_rt::error::RtResult;
use netpkt::pcap::RawPacket;
use netpkt::synth::{dns_trace, http_trace, throughput_trace, SynthConfig};

/// HTTP sessions per `http-binpac` trace (about 12 packets each).
const HTTP_SESSIONS: usize = 700;
/// DNS transactions per `dns-binpac` trace (about 1.9 packets each).
const DNS_TRANSACTIONS: usize = 3000;
/// Flows per `http-flows-x1` trace (about 8 packets each).
const X1_FLOWS: usize = 3000;

/// Idle-flow timeout of the measured governance, in trace milliseconds.
/// The traces span 0.36 s (`http-flows-x1`) to 2.4 s of trace time, so
/// the timer layer evicts flows during the run, not only at its end.
const IDLE_TIMEOUT_MS: u64 = 100;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Proto {
    Http,
    Dns,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HttpBinpac,
    DnsBinpac,
    HttpFlowsX1,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HttpBinpac,
        Workload::DnsBinpac,
        Workload::HttpFlowsX1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpBinpac => "http-binpac",
            Workload::DnsBinpac => "dns-binpac",
            Workload::HttpFlowsX1 => "http-flows-x1",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn proto(self) -> Proto {
        match self {
            Workload::DnsBinpac => Proto::Dns,
            Workload::HttpBinpac | Workload::HttpFlowsX1 => Proto::Http,
        }
    }

    pub fn stack(self) -> ParserStack {
        match self {
            Workload::HttpBinpac | Workload::DnsBinpac => ParserStack::Binpac,
            Workload::HttpFlowsX1 => ParserStack::Standard,
        }
    }

    pub fn parallel(self) -> bool {
        self == Workload::HttpFlowsX1
    }

    /// The workload's input, a pure function of the seed.
    pub fn trace(self, seed: u64) -> Vec<RawPacket> {
        match self {
            Workload::HttpBinpac => http_trace(&SynthConfig::new(seed, HTTP_SESSIONS)),
            Workload::DnsBinpac => dns_trace(&SynthConfig::new(seed, DNS_TRANSACTIONS)),
            Workload::HttpFlowsX1 => throughput_trace(seed, X1_FLOWS),
        }
    }

    /// The measured call: the public pipeline API the workload exercises,
    /// with compiled scripts and the production-like governance.
    pub fn run(self, packets: &[RawPacket], gov: &Governance) -> RtResult<AnalysisResult> {
        match self {
            Workload::HttpBinpac => {
                run_http_analysis_governed(packets, ParserStack::Binpac, Engine::Compiled, gov)
            }
            Workload::DnsBinpac => {
                run_dns_analysis_governed(packets, ParserStack::Binpac, Engine::Compiled, gov)
            }
            // One shard plus the dispatcher: exactly two threads.
            Workload::HttpFlowsX1 => run_http_analysis_parallel(
                packets,
                ParserStack::Standard,
                Engine::Compiled,
                &PipelineOptions {
                    workers: 1,
                    governance: *gov,
                    ..PipelineOptions::default()
                },
            ),
        }
    }

    /// The reference path: the interpreted engine for the sequential
    /// workloads (Table 3: byte-identical to compiled), the sequential
    /// pipeline for the sharded one (byte-identical for every worker count).
    pub fn reference(self, packets: &[RawPacket], gov: &Governance) -> RtResult<AnalysisResult> {
        match self {
            Workload::HttpBinpac => {
                run_http_analysis_governed(packets, ParserStack::Binpac, Engine::Interpreted, gov)
            }
            Workload::DnsBinpac => {
                run_dns_analysis_governed(packets, ParserStack::Binpac, Engine::Interpreted, gov)
            }
            Workload::HttpFlowsX1 => {
                run_http_analysis_governed(packets, ParserStack::Standard, Engine::Compiled, gov)
            }
        }
    }
}

/// The governance every measured run uses: quarantine on, idle flows
/// evicted by the timer layer; tracing, telemetry and fault injection off.
pub fn governance() -> Governance {
    Governance {
        quarantine: true,
        idle_timeout_ms: Some(IDLE_TIMEOUT_MS),
        ..Governance::default()
    }
}

/// Operations of a run that ended in an error, counted the way the
/// pipeline reports them.
pub fn errors(r: &AnalysisResult) -> u64 {
    r.flow_errors.len() as u64 + r.parse_failures + r.shed_packets + r.shard_faults.len() as u64
}

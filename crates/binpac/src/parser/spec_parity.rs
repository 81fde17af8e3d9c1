//! Generated parsers with the bytecode specializer on and off: DNS
//! datagrams and HTTP streams (fed whole and byte by byte, so fibers
//! suspend on `WouldBlock` inside fixed-width and token fields) must
//! produce the same events, retire the same fuel and, traced, emit the
//! same instruction trace. Typed parser locals let the specializer bind
//! struct and tuple accesses and fuse fixed-width reads; none of that may
//! be observable.

use crate::dns::{dns_grammar, BinpacDns};
use crate::http::{http_grammar, BinpacHttp};
use crate::BinpacParser;
use hilti::host::BuildOptions;
use hilti::passes::OptLevel;
use hilti_rt::addr::Port;
use hilti_rt::time::Time;
use netpkt::decode::decode_ethernet;
use netpkt::events::{ConnId, Event};
use netpkt::synth::{dns_trace, SynthConfig};

fn options(specialize: bool) -> BuildOptions {
    BuildOptions {
        specialize,
        ..Default::default()
    }
}

fn conn_id(port: u16) -> ConnId {
    ConnId {
        orig_h: "10.0.0.1".parse().unwrap(),
        orig_p: Port::udp(port),
        resp_h: "10.0.0.53".parse().unwrap(),
        resp_p: Port::udp(53),
    }
}

/// Events, failed datagrams, fuel and (when `trace`) the instruction
/// trace of one DNS run.
fn dns_run(
    specialize: bool,
    transactions: usize,
    trace: bool,
) -> (Vec<Event>, u64, u64, Vec<String>) {
    let ir = BinpacParser::front_end_with(&dns_grammar(), &[], OptLevel::Full, options(specialize))
        .unwrap();
    let mut d = BinpacDns::from_ir(&ir, None).unwrap();
    d.parser_mut().program_mut().context_mut().trace = trace;
    for p in dns_trace(&SynthConfig::new(11, transactions)) {
        let dec = decode_ethernet(&p).unwrap();
        d.datagram("C1", conn_id(40000), p.ts, &dec.payload)
            .unwrap();
    }
    let ctx = d.parser_mut().program_mut().context_mut();
    let fuel = ctx.fuel_spent();
    let lines = ctx.take_trace();
    (d.take_events(), d.failed, fuel, lines)
}

#[test]
fn dns_parser_spec_on_off_identical() {
    let on = dns_run(true, 150, false);
    assert!(on.0.len() > 100, "{} events", on.0.len());
    assert_eq!(on, dns_run(false, 150, false));
    // Traced runs pin the generic tier; the fused reads then run as their
    // first constituent and the bound accesses render like generic ops.
    let traced = dns_run(true, 20, true);
    assert!(traced.3.len() > 1000, "{} trace lines", traced.3.len());
    assert_eq!(traced, dns_run(false, 20, true));
}

const REQUESTS: &[u8] = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n\
POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
const REPLIES: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc\
HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";

fn http_run(specialize: bool, chunk: usize, trace: bool) -> (Vec<Event>, u64, Vec<String>) {
    let ir = BinpacParser::front_end_with(
        &http_grammar(),
        &["Request", "Reply"],
        OptLevel::Full,
        options(specialize),
    )
    .unwrap();
    let mut h = BinpacHttp::from_ir(&ir, None).unwrap();
    h.parser_mut().program_mut().context_mut().trace = trace;
    let id = conn_id(40001);
    for (is_orig, wire) in [(true, REQUESTS), (false, REPLIES)] {
        for piece in wire.chunks(chunk) {
            h.feed("C1", id, is_orig, Time::from_secs(1), piece)
                .unwrap();
        }
    }
    h.finish_conn("C1", id, Time::from_secs(2)).unwrap();
    let ctx = h.parser_mut().program_mut().context_mut();
    let fuel = ctx.fuel_spent();
    let lines = ctx.take_trace();
    (h.take_events(), fuel, lines)
}

#[test]
fn http_parser_spec_on_off_identical() {
    for chunk in [usize::MAX, 7, 1] {
        for trace in [false, true] {
            let on = http_run(true, chunk, trace);
            assert!(on.0.len() >= 10, "{:#?}", on.0);
            assert_eq!(
                on,
                http_run(false, chunk, trace),
                "chunk={chunk} trace={trace}"
            );
        }
    }
}

/// The generated DNS parser runs almost entirely on the specialized tier:
/// struct and tuple accesses are slot-bound and fixed-width fields fused,
/// so at most 50 fuel units per datagram retire on the generic path
/// (108.6 before typed parser locals), while the fuel itself — one unit
/// per IR instruction — is unchanged.
#[test]
fn dns_parser_generic_work_per_datagram() {
    let run = |specialize: bool| {
        let ir =
            BinpacParser::front_end_with(&dns_grammar(), &[], OptLevel::Full, options(specialize))
                .unwrap();
        let mut p = BinpacParser::from_ir(&ir).unwrap();
        p.register_hook("Dns::on_message", |_| Ok(hilti::value::Value::Null));
        let mut datagrams = 0u64;
        for pkt in dns_trace(&SynthConfig::new(21, 3000)) {
            let dec = decode_ethernet(&pkt).unwrap();
            let _ = p.parse_datagram("Message", &dec.payload);
            datagrams += 1;
        }
        let ctx = p.program().context();
        (datagrams, ctx.fuel_spent(), ctx.tier_mix().generic)
    };
    let (n, fuel, generic) = run(true);
    assert!(n > 5000, "{n} datagrams");
    assert!(
        generic <= 50 * n,
        "{:.1} generic units per datagram",
        generic as f64 / n as f64
    );
    let (_, fuel_off, _) = run(false);
    assert_eq!(fuel, fuel_off);
    // 352.1 units per datagram, as before the slot-bound rewrites.
    assert_eq!(
        (fuel * 10 + n / 2) / n,
        3521,
        "fuel {fuel} over {n} datagrams"
    );
}

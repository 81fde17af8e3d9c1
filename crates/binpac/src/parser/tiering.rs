//! Generated parsers under adaptive tiering: DNS datagrams from a
//! synthetic trace, and HTTP streams fed whole and byte by byte (so parse
//! fibers suspend on `WouldBlock` mid-field), must produce exactly the
//! events of the statically specialized build at every tiering level.
//! `HILTI_TIERING` narrows the sweep to one level, so the CI tier matrix
//! runs one level per job.

use crate::dns::{dns_grammar, BinpacDns};
use crate::http::{http_grammar, BinpacHttp};
use crate::BinpacParser;
use hilti::host::BuildOptions;
use hilti::passes::OptLevel;
use hilti::tier::TieringMode;
use hilti_rt::addr::Port;
use hilti_rt::time::Time;
use netpkt::decode::decode_ethernet;
use netpkt::events::{ConnId, Event};
use netpkt::synth::{dns_trace, SynthConfig};

fn modes() -> Vec<TieringMode> {
    match TieringMode::from_env() {
        Some(m) => vec![m],
        None => vec![
            TieringMode::Off,
            TieringMode::Lazy,
            TieringMode::Eager,
            TieringMode::Threaded,
        ],
    }
}

fn options(tiering: Option<TieringMode>) -> BuildOptions {
    BuildOptions {
        tiering,
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

fn dns_events(tiering: Option<TieringMode>) -> (Vec<Event>, u64) {
    let ir = BinpacParser::front_end_with(&dns_grammar(), &[], OptLevel::Full, options(tiering))
        .unwrap();
    let mut d = BinpacDns::from_ir(&ir, None).unwrap();
    for p in dns_trace(&SynthConfig::new(11, 150)) {
        let dec = decode_ethernet(&p).unwrap();
        d.datagram("C1", conn_id(40000), p.ts, &dec.payload)
            .unwrap();
    }
    (d.take_events(), d.failed)
}

const REQUESTS: &[u8] = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n\
POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
const REPLIES: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc\
HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";

fn http_events(tiering: Option<TieringMode>, chunk: usize) -> Vec<Event> {
    let ir = BinpacParser::front_end_with(
        &http_grammar(),
        &["Request", "Reply"],
        OptLevel::Full,
        options(tiering),
    )
    .unwrap();
    let mut h = BinpacHttp::from_ir(&ir, None).unwrap();
    let id = conn_id(40001);
    for (is_orig, wire) in [(true, REQUESTS), (false, REPLIES)] {
        for piece in wire.chunks(chunk) {
            h.feed("C1", id, is_orig, Time::from_secs(1), piece)
                .unwrap();
        }
    }
    h.finish_conn("C1", id, Time::from_secs(2)).unwrap();
    h.take_events()
}

#[test]
fn dns_parser_events_identical_at_every_tier() {
    let (reference, failed) = dns_events(None);
    assert!(reference.len() > 100, "{} events", reference.len());
    for mode in modes() {
        assert_eq!(
            dns_events(Some(mode)),
            (reference.clone(), failed),
            "tiering={mode:?}"
        );
    }
}

#[test]
fn http_parser_events_identical_at_every_tier() {
    let reference = http_events(None, usize::MAX);
    assert!(reference.len() >= 10, "{reference:#?}");
    assert_eq!(http_events(None, 1), reference, "byte-at-a-time static");
    for mode in modes() {
        for chunk in [usize::MAX, 7, 1] {
            assert_eq!(
                http_events(Some(mode), chunk),
                reference,
                "tiering={mode:?} chunk={chunk}"
            );
        }
    }
}

#[test]
fn dns_parser_runs_on_the_tier_it_was_promoted_to() {
    for mode in modes() {
        let ir =
            BinpacParser::front_end_with(&dns_grammar(), &[], OptLevel::Full, options(Some(mode)))
                .unwrap();
        let mut p = BinpacParser::from_ir(&ir).unwrap();
        p.register_hook("Dns::on_message", |_| Ok(hilti::value::Value::Null));
        for pkt in dns_trace(&SynthConfig::new(11, 40)) {
            let dec = decode_ethernet(&pkt).unwrap();
            let _ = p.parse_datagram("Message", &dec.payload);
        }
        let ctx = p.program().context();
        let tiered: Vec<String> = ctx
            .tier_report()
            .functions
            .into_iter()
            .map(|f| f.name)
            .collect();
        let name_parser_tiered = tiered.iter().any(|n| n == "Dns::parse_name");
        assert_eq!(
            name_parser_tiered,
            mode != TieringMode::Off,
            "{mode:?}: {tiered:?}"
        );
        let threaded = ctx.tier_mix().threaded;
        assert_eq!(threaded > 0, mode == TieringMode::Threaded, "{mode:?}");
    }
}

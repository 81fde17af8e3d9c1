//! The BinPAC++ DNS grammar and its event adapter.
//!
//! The DNS case study of §6.4. The wire format is binary: counted sections
//! of resource records, with domain names compressed via back-pointers into
//! the message. Name decompression is expressed as a hand-written HILTI
//! helper attached to the grammar (`parse_name`) — the analog of the helper
//! code a `.pac2` author writes — with a pointer-loop guard (fail-safe
//! against hostile input, §7).
//!
//! One deliberate semantic difference from the standard parser reproduces
//! the paper's Table 2 note: **TXT rdata renders all character-strings**,
//! where the standard parser extracts only the first ("Bro's parser
//! extracts only one entry from TXT records, BinPAC++ all").

use std::cell::RefCell;
use std::rc::Rc;

use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti_rt::error::{ExceptionKind, RtError, RtResult};
use hilti_rt::profile::{Component, Profiler};
use hilti_rt::time::Time;

use netpkt::events::{ConnId, DnsAnswer, Event};

use crate::grammar::{Field, FieldKind, Grammar, Repeat, Unit};
use crate::parser::{BinpacParser, ParserIr};

/// Raw HILTI: compressed-name decoding plus the address overlays used for
/// A/AAAA rdata rendering.
const DNS_HELPERS: &str = r#"
type V4 = overlay { a: addr at 0 unpack IPv4InNetworkOrder }
type V6 = overlay { a: addr at 0 unpack IPv6InNetworkOrder }

tuple<any, any> parse_name(ref<bytes> data, iterator<bytes> it) {
    local string name
    local int<64> len
    local int<64> jumps
    local iterator<bytes> cur
    local iterator<bytes> after
    local bool jumped
    local int<64> lo
    local int<64> off
    local iterator<bytes> nxt
    local bool is_ptr
    local bool is_end
    local bool bad
    local iterator<bytes> start
    local iterator<bytes> endp
    local any lblb
    local string lbls
    local bool isfirst
    local bool toomany
    local tuple<any, any> r
    local iterator<bytes> retit

    name = assign ""
    jumps = assign 0
    jumped = assign False
    cur = assign it
name_loop:
    len = iterator.deref cur
    is_ptr = int.geq len 192
    if.else is_ptr name_ptr name_chk_end
name_ptr:
    nxt = iterator.incr cur 1
    lo = iterator.deref nxt
    off = int.and len 63
    off = int.shl off 8
    off = int.or off lo
    if.else jumped name_ptr2 name_ptr1
name_ptr1:
    after = iterator.incr cur 2
    jumped = assign True
name_ptr2:
    jumps = int.add jumps 1
    toomany = int.gt jumps 32
    if.else toomany name_fail name_ptr3
name_ptr3:
    cur = bytes.at data off
    jump name_loop
name_fail:
    exception.throw Hilti::ValueError "DNS name: pointer loop"
name_chk_end:
    is_end = int.eq len 0
    if.else is_end name_done name_label
name_label:
    bad = int.geq len 64
    if.else bad name_fail2 name_lbl2
name_fail2:
    exception.throw Hilti::ValueError "DNS name: reserved label type"
name_lbl2:
    start = iterator.incr cur 1
    endp = iterator.incr start len
    lblb = bytes.sub start endp
    lbls = bytes.to_string lblb
    isfirst = equal name ""
    if.else isfirst name_app1 name_app2
name_app1:
    name = assign lbls
    jump name_next
name_app2:
    name = string.concat name "."
    name = string.concat name lbls
name_next:
    cur = assign endp
    jump name_loop
name_done:
    retit = iterator.incr cur 1
    if.else jumped name_ret_jumped name_ret_plain
name_ret_jumped:
    retit = assign after
name_ret_plain:
    r = tuple.pack name retit
    return r
}
"#;

/// Builds the DNS grammar (`dns.pac2`).
pub fn dns_grammar() -> Grammar {
    let question = Unit::new("Question")
        .slot("name")
        .field(Field::anon(FieldKind::Embedded(vec![
            "local tuple<any, any> __nr".into(),
            "__nr = call parse_name (data, it)".into(),
            "local string __nm".into(),
            "__nm = tuple.get __nr 0".into(),
            "struct.set self name __nm".into(),
            "it = tuple.get __nr 1".into(),
        ])))
        .field(Field::named("qtype", FieldKind::UInt(2)))
        .field(Field::named("qclass", FieldKind::UInt(2)));

    // RDATA rendering (before the raw rdata bytes are consumed):
    // all-strings TXT joining is the deliberate Table 2 difference.
    let render: Vec<String> = r#"
local int<64> __rt
__rt = struct.get self rtype
local int<64> __rl
__rl = struct.get self rdlen
local int<64> __off
__off = iterator.offset it
local string __rend
local tuple<any, any> __nr
local bool __c
local bool __c2
__rend = assign ""
__c = int.eq __rt 1
if.else __c rr_a rr_c28
rr_a:
local any __a4
__a4 = overlay.get V4 a data __off
__rend = string.render __a4
jump rr_rend_done
rr_c28:
__c = int.eq __rt 28
if.else __c rr_aaaa rr_c5
rr_aaaa:
local any __a6
__a6 = overlay.get V6 a data __off
__rend = string.render __a6
jump rr_rend_done
rr_c5:
__c = int.eq __rt 5
__c2 = int.eq __rt 2
__c = or __c __c2
__c2 = int.eq __rt 12
__c = or __c __c2
if.else __c rr_name rr_c15
rr_name:
__nr = call parse_name (data, it)
__rend = tuple.get __nr 0
jump rr_rend_done
rr_c15:
__c = int.eq __rt 15
if.else __c rr_mx rr_c16
rr_mx:
local iterator<bytes> __mxit
__mxit = iterator.incr it 2
__nr = call parse_name (data, __mxit)
__rend = tuple.get __nr 0
jump rr_rend_done
rr_c16:
__c = int.eq __rt 16
if.else __c rr_txt rr_c6
rr_txt:
local iterator<bytes> __tit
local iterator<bytes> __tend
local int<64> __sl
local any __sb
local string __ss
local bool __tmore
local int<64> __toff
local int<64> __eoff
local iterator<bytes> __sse
local bool __fst
__tit = assign it
__tend = iterator.incr it __rl
rr_txt_loop:
__toff = iterator.offset __tit
__eoff = iterator.offset __tend
__tmore = int.lt __toff __eoff
if.else __tmore rr_txt_one rr_rend_done
rr_txt_one:
__sl = iterator.deref __tit
__tit = iterator.incr __tit 1
__sse = iterator.incr __tit __sl
__sb = bytes.sub __tit __sse
__ss = bytes.to_string __sb
__tit = assign __sse
__fst = equal __rend ""
if.else __fst rr_txt_f rr_txt_s
rr_txt_f:
__rend = assign __ss
jump rr_txt_loop
rr_txt_s:
__rend = string.concat __rend " "
__rend = string.concat __rend __ss
jump rr_txt_loop
rr_c6:
__c = int.eq __rt 6
if.else __c rr_soa rr_other
rr_soa:
__nr = call parse_name (data, it)
__rend = tuple.get __nr 0
jump rr_rend_done
rr_other:
__rend = string.fmt "<rdata:{} bytes>" __rl
rr_rend_done:
struct.set self rdata_text __rend
"#
    .lines()
    .map(str::trim)
    .filter(|l| !l.is_empty())
    .map(str::to_owned)
    .collect();

    let rr = Unit::new("RR")
        .slot("name")
        .slot("rdata_text")
        .field(Field::anon(FieldKind::Embedded(vec![
            "local tuple<any, any> __nr0".into(),
            "__nr0 = call parse_name (data, it)".into(),
            "local string __nm0".into(),
            "__nm0 = tuple.get __nr0 0".into(),
            "struct.set self name __nm0".into(),
            "it = tuple.get __nr0 1".into(),
        ])))
        .field(Field::named("rtype", FieldKind::UInt(2)))
        .field(Field::named("class_", FieldKind::UInt(2)))
        .field(Field::named("ttl", FieldKind::UInt(4)))
        .field(Field::named("rdlen", FieldKind::UInt(2)))
        .field(Field::anon(FieldKind::Embedded(render)))
        .field(Field::named("rdata", FieldKind::BytesVar("rdlen".into())));

    let message = Unit::new("Message")
        .field(Field::named("id", FieldKind::UInt(2)))
        .field(Field::named("flags", FieldKind::UInt(2)))
        .field(Field::named("qdcount", FieldKind::UInt(2)))
        .field(Field::named("ancount", FieldKind::UInt(2)))
        .field(Field::named("nscount", FieldKind::UInt(2)))
        .field(Field::named("arcount", FieldKind::UInt(2)))
        .field(Field::anon(FieldKind::Embedded(
            // Implausible counts are rejected before allocating anything
            // (fail-safe processing of untrusted counts, §7).
            r#"
local int<64> __qd
local int<64> __an
local int<64> __ns
local int<64> __ar
local bool __big
local bool __b2
__qd = struct.get self qdcount
__an = struct.get self ancount
__ns = struct.get self nscount
__ar = struct.get self arcount
__big = int.gt __qd 512
__b2 = int.gt __an 512
__big = or __big __b2
__b2 = int.gt __ns 512
__big = or __big __b2
__b2 = int.gt __ar 512
__big = or __big __b2
if.else __big dns_toobig dns_counts_ok
dns_toobig:
exception.throw Hilti::ValueError "DNS: implausible record count"
dns_counts_ok:
"#
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_owned)
            .collect(),
        )))
        .field(Field::named(
            "questions",
            FieldKind::List("Question".into(), Repeat::CountVar("qdcount".into())),
        ))
        .field(Field::named(
            "answers",
            FieldKind::List("RR".into(), Repeat::CountVar("ancount".into())),
        ))
        .field(Field::named(
            "auth",
            FieldKind::List("RR".into(), Repeat::CountVar("nscount".into())),
        ))
        .field(Field::named(
            "addl",
            FieldKind::List("RR".into(), Repeat::CountVar("arcount".into())),
        ))
        .on_done("Dns::on_message");

    Grammar::new("Dns")
        .unit(question)
        .unit(rr)
        .unit(message)
        .raw(DNS_HELPERS)
}

// Slot layouts (fixed by the grammar above).
mod slots {
    // Question: named [qtype, qclass] + extra [name].
    pub const Q_QTYPE: usize = 0;
    pub const Q_NAME: usize = 2;
    // RR: named [rtype, class_, ttl, rdlen, rdata] + extra [name, rdata_text].
    pub const RR_RTYPE: usize = 0;
    pub const RR_TTL: usize = 2;
    pub const RR_NAME: usize = 5;
    pub const RR_RDATA_TEXT: usize = 6;
    // Message: [id, flags, qdcount, ancount, nscount, arcount,
    //           questions, answers, auth, addl].
    pub const M_ID: usize = 0;
    pub const M_FLAGS: usize = 1;
    pub const M_QUESTIONS: usize = 6;
    pub const M_ANSWERS: usize = 7;
}

#[derive(Default)]
struct DnsShared {
    current: Option<(std::sync::Arc<str>, ConnId, Time)>,
    events: Vec<Event>,
}

/// The generated DNS parser wired to Bro-style events.
pub struct BinpacDns {
    parser: BinpacParser,
    shared: Rc<RefCell<DnsShared>>,
    profiler: Option<Profiler>,
    /// Datagrams that failed to parse (crud on port 53).
    pub failed: u64,
    /// Wall-clock watchdog re-armed at the start of every datagram.
    deadline_ms: Option<u64>,
    /// Parse-stage span hook, mirroring `BinpacHttp::set_recorder`.
    recorder: Option<hilti_rt::trace::SharedRecorder>,
    span_slot: u64,
}

fn slot(v: &Value, idx: usize) -> RtResult<Value> {
    match v {
        Value::Struct(s) => s
            .borrow()
            .fields
            .get(idx)
            .cloned()
            .ok_or_else(|| RtError::index("missing struct slot")),
        other => Err(RtError::type_error(format!(
            "expected unit struct, got {}",
            other.type_name()
        ))),
    }
}

fn slot_int(v: &Value, idx: usize) -> RtResult<i64> {
    slot(v, idx)?.as_int()
}

impl BinpacDns {
    pub fn new(opt: OptLevel, profiler: Option<Profiler>) -> RtResult<BinpacDns> {
        Self::wire(BinpacParser::compile(&dns_grammar(), &[], opt)?, profiler)
    }

    /// The shareable front end of [`BinpacDns::new`]: grammar codegen and
    /// IR optimization, no bytecode (see [`BinpacHttp::front_end`]).
    ///
    /// [`BinpacHttp::front_end`]: crate::http::BinpacHttp::front_end
    pub fn front_end(opt: OptLevel) -> RtResult<ParserIr> {
        BinpacParser::front_end(&dns_grammar(), &[], opt)
    }

    /// Per-thread construction from a shared front end.
    pub fn from_ir(ir: &ParserIr, profiler: Option<Profiler>) -> RtResult<BinpacDns> {
        Self::wire(BinpacParser::from_ir(ir)?, profiler)
    }

    /// The generated parser, for tests that inspect its VM context.
    #[cfg(test)]
    pub(crate) fn parser_mut(&mut self) -> &mut BinpacParser {
        &mut self.parser
    }

    fn wire(mut parser: BinpacParser, profiler: Option<Profiler>) -> RtResult<BinpacDns> {
        let shared: Rc<RefCell<DnsShared>> = Rc::new(RefCell::new(DnsShared::default()));

        let s = shared.clone();
        let prof = profiler.clone();
        parser.register_hook("Dns::on_message", move |args| {
            let _g = prof.as_ref().map(|p| p.enter(Component::Glue));
            let msg = &args[0];
            let mut sh = s.borrow_mut();
            let Some((uid, id, ts)) = sh.current.clone() else {
                return Err(RtError::runtime("DNS hook fired with no active datagram"));
            };
            let trans_id = slot_int(msg, slots::M_ID)? as u16;
            let flags = slot_int(msg, slots::M_FLAGS)? as u16;
            let is_response = flags & 0x8000 != 0;
            let rcode = flags & 0xf;
            // First question drives the query fields.
            let (query, qtype) = match slot(msg, slots::M_QUESTIONS)? {
                Value::Vector(qs) => {
                    let qs = qs.borrow();
                    match qs.first() {
                        Some(q) => (
                            slot(q, slots::Q_NAME)?.render(),
                            slot_int(q, slots::Q_QTYPE)? as u16,
                        ),
                        None => (String::new(), 0),
                    }
                }
                _ => (String::new(), 0),
            };
            if is_response {
                let mut answers = Vec::new();
                if let Value::Vector(ans) = slot(msg, slots::M_ANSWERS)? {
                    for rr in ans.borrow().iter() {
                        let rtype = slot_int(rr, slots::RR_RTYPE)? as u16;
                        if rtype == 41 {
                            continue; // OPT pseudo-record
                        }
                        answers.push(DnsAnswer {
                            name: slot(rr, slots::RR_NAME)?.render(),
                            rtype,
                            ttl: slot_int(rr, slots::RR_TTL)? as u32,
                            rdata: slot(rr, slots::RR_RDATA_TEXT)?.render(),
                        });
                    }
                }
                sh.events.push(Event::DnsReply {
                    ts,
                    uid: uid.as_ref().to_owned(),
                    id,
                    trans_id,
                    rcode,
                    answers,
                });
            } else {
                sh.events.push(Event::DnsRequest {
                    ts,
                    uid: uid.as_ref().to_owned(),
                    id,
                    trans_id,
                    query,
                    qtype,
                });
            }
            Ok(Value::Null)
        });

        Ok(BinpacDns {
            parser,
            shared,
            profiler,
            failed: 0,
            deadline_ms: None,
            recorder: None,
            span_slot: 0,
        })
    }

    /// Parse-stage span hook: every subsequent `datagram` records a
    /// `Stage::Parse` span into `rec` (see `BinpacHttp::set_recorder`).
    pub fn set_recorder(&mut self, rec: hilti_rt::trace::SharedRecorder) {
        self.recorder = Some(rec);
    }

    /// Packet slot (merge major) attributed to the next parse-stage spans.
    pub fn set_span_slot(&mut self, slot: u64) {
        self.span_slot = slot;
    }

    /// Arms a per-datagram wall-clock watchdog, mirroring
    /// `BinpacHttp::set_delivery_deadline_ms`.
    pub fn set_delivery_deadline_ms(&mut self, ms: Option<u64>) {
        self.deadline_ms = ms;
        if ms.is_none() {
            self.parser
                .program_mut()
                .context_mut()
                .arm_deadline_after_ms(None);
        }
    }

    /// Attaches telemetry to the parser VM (retired-instruction counters
    /// and resource-limit events), mirroring `BinpacHttp::set_telemetry`.
    pub fn set_telemetry(&mut self, telemetry: &hilti_rt::telemetry::Telemetry) {
        self.parser
            .program_mut()
            .context_mut()
            .set_telemetry(telemetry);
    }

    /// Parses one UDP datagram; returns false if it was not parseable DNS.
    pub fn datagram(&mut self, uid: &str, id: ConnId, ts: Time, payload: &[u8]) -> RtResult<bool> {
        let uid: std::sync::Arc<str> = std::sync::Arc::from(uid);
        self.datagram_chunk(&uid, id, ts, hilti_rt::bytestring::FeedChunk::Copy(payload))
    }

    /// Parses one UDP datagram handed over as a [`FeedChunk`]; a borrowed
    /// chunk reaches the parser without a payload copy. The uid is the
    /// caller's interned handle (cloned, never re-allocated).
    ///
    /// [`FeedChunk`]: hilti_rt::bytestring::FeedChunk
    pub fn datagram_chunk(
        &mut self,
        uid: &std::sync::Arc<str>,
        id: ConnId,
        ts: Time,
        payload: hilti_rt::bytestring::FeedChunk<'_>,
    ) -> RtResult<bool> {
        let _p = self
            .profiler
            .as_ref()
            .map(|p| p.enter(Component::ProtocolParsing));
        let span_begin = self.recorder.is_some().then(hilti_rt::trace::monotonic_ns);
        if let Some(ms) = self.deadline_ms {
            self.parser
                .program_mut()
                .context_mut()
                .arm_deadline_after_ms(Some(ms));
        }
        self.shared.borrow_mut().current = Some((uid.clone(), id, ts));
        let r = match self.parser.parse_datagram_chunk("Message", payload) {
            Ok(_) => Ok(true),
            // Governance faults (deadline, fuel, heap) must escape to the
            // host; only input-dependent errors count as unparseable crud.
            Err(e) if e.kind == ExceptionKind::ResourceExhausted => Err(e),
            Err(_) => {
                self.failed += 1;
                Ok(false)
            }
        };
        if let (Some(rec), Some(begin)) = (&self.recorder, span_begin) {
            rec.borrow_mut().record(
                hilti_rt::trace::Stage::Parse,
                self.span_slot,
                Some(uid),
                begin,
            );
        }
        r
    }

    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.shared.borrow_mut().events)
    }

    /// Moves the accumulated events into `out`, keeping the internal
    /// buffer's capacity (see `BinpacHttp::drain_events_into`).
    pub fn drain_events_into(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.shared.borrow_mut().events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilti_rt::addr::Port;
    use netpkt::dns::DnsBuilder;
    use netpkt::events::dns_types;

    fn conn_id() -> ConnId {
        ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::udp(5353),
            resp_h: "8.8.8.8".parse().unwrap(),
            resp_p: Port::udp(53),
        }
    }

    fn t() -> Time {
        Time::from_secs(1)
    }

    #[test]
    fn query_event() {
        let mut d = BinpacDns::new(OptLevel::Full, None).unwrap();
        let q = DnsBuilder::new(0x1234, false, 0)
            .question("www.example.com", dns_types::A)
            .build();
        assert!(d.datagram("C1", conn_id(), t(), &q).unwrap());
        let evs = d.take_events();
        match &evs[0] {
            Event::DnsRequest {
                trans_id,
                query,
                qtype,
                ..
            } => {
                assert_eq!(*trans_id, 0x1234);
                assert_eq!(query, "www.example.com");
                assert_eq!(*qtype, dns_types::A);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn response_with_a_record() {
        let mut d = BinpacDns::new(OptLevel::Full, None).unwrap();
        let r = DnsBuilder::new(7, true, 0)
            .question("example.com", dns_types::A)
            .answer_a("example.com", 300, [93, 184, 216, 34])
            .build();
        assert!(d.datagram("C1", conn_id(), t(), &r).unwrap());
        let evs = d.take_events();
        match &evs[0] {
            Event::DnsReply { rcode, answers, .. } => {
                assert_eq!(*rcode, 0);
                assert_eq!(answers.len(), 1);
                assert_eq!(answers[0].rdata, "93.184.216.34");
                assert_eq!(answers[0].ttl, 300);
                assert_eq!(answers[0].name, "example.com");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cname_mx_and_compression() {
        let mut d = BinpacDns::new(OptLevel::Full, None).unwrap();
        let r = DnsBuilder::new(7, true, 0)
            .question("mail.example.com", dns_types::MX)
            .answer_cname("mail.example.com", 60, "mx.example.net")
            .answer_mx("mx.example.net", 60, 10, "smtp.example.net")
            .build();
        assert!(d.datagram("C1", conn_id(), t(), &r).unwrap());
        let evs = d.take_events();
        match &evs[0] {
            Event::DnsReply { answers, .. } => {
                assert_eq!(answers[0].rdata, "mx.example.net");
                assert_eq!(answers[1].rdata, "smtp.example.net");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn txt_renders_all_strings() {
        // The deliberate Table 2 semantic difference: ALL strings.
        let mut d = BinpacDns::new(OptLevel::Full, None).unwrap();
        let r = DnsBuilder::new(7, true, 0)
            .question("t.example.com", dns_types::TXT)
            .answer_txt("t.example.com", 60, &["first", "second", "third"])
            .build();
        assert!(d.datagram("C1", conn_id(), t(), &r).unwrap());
        let evs = d.take_events();
        match &evs[0] {
            Event::DnsReply { answers, .. } => {
                assert_eq!(answers[0].rdata, "first second third");
            }
            other => panic!("unexpected {other:?}"),
        }
        // And the standard parser keeps only the first (the difference).
        let msg = DnsBuilder::new(7, true, 0)
            .question("t.example.com", dns_types::TXT)
            .answer_txt("t.example.com", 60, &["first", "second", "third"])
            .build();
        let std = netpkt::dns::parse_message(&msg).unwrap();
        assert_eq!(std.answers[0].rdata, "first");
    }

    #[test]
    fn crud_rejected_not_fatal() {
        let mut d = BinpacDns::new(OptLevel::Full, None).unwrap();
        assert!(!d
            .datagram("C1", conn_id(), t(), b"GET / HTTP/1.1\r\n")
            .unwrap());
        assert!(!d.datagram("C1", conn_id(), t(), &[]).unwrap());
        assert_eq!(d.failed, 2);
        // Still works afterwards.
        let q = DnsBuilder::new(1, false, 0)
            .question("x.org", dns_types::A)
            .build();
        assert!(d.datagram("C1", conn_id(), t(), &q).unwrap());
    }

    #[test]
    fn pointer_loop_rejected() {
        let mut d = BinpacDns::new(OptLevel::Full, None).unwrap();
        let mut msg = DnsBuilder::new(7, false, 0).build();
        msg.extend_from_slice(&[0xc0, 12]); // self-pointer at offset 12
        msg.extend_from_slice(&dns_types::A.to_be_bytes());
        msg.extend_from_slice(&1u16.to_be_bytes());
        msg[4..6].copy_from_slice(&1u16.to_be_bytes());
        assert!(!d.datagram("C1", conn_id(), t(), &msg).unwrap());
    }

    #[test]
    fn nxdomain_rcode() {
        let mut d = BinpacDns::new(OptLevel::Full, None).unwrap();
        let r = DnsBuilder::new(9, true, 3)
            .question("missing.example.com", dns_types::A)
            .build();
        assert!(d.datagram("C1", conn_id(), t(), &r).unwrap());
        match &d.take_events()[0] {
            Event::DnsReply { rcode, answers, .. } => {
                assert_eq!(*rcode, 3);
                assert!(answers.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn agrees_with_standard_parser_on_synth_trace() {
        use netpkt::decode::decode_ethernet;
        let mut d = BinpacDns::new(OptLevel::Full, None).unwrap();
        let pkts = netpkt::synth::dns_trace(&netpkt::synth::SynthConfig::new(5, 60));
        let mut agree = 0;
        let mut total = 0;
        for p in &pkts {
            let dec = decode_ethernet(p).unwrap();
            let std = netpkt::dns::parse_message(&dec.payload);
            let bp_ok = d.datagram("C1", conn_id(), p.ts, &dec.payload).unwrap();
            assert_eq!(std.is_ok(), bp_ok, "parseability must agree");
            if let Ok(stdm) = std {
                total += 1;
                let evs = d.take_events();
                let ev = evs.last().expect("one event per parsed datagram");
                match ev {
                    Event::DnsRequest {
                        trans_id, query, ..
                    } => {
                        assert!(!stdm.is_response);
                        assert_eq!(*trans_id, stdm.id);
                        assert_eq!(query, &stdm.questions[0].name);
                        agree += 1;
                    }
                    Event::DnsReply {
                        trans_id,
                        rcode,
                        answers,
                        ..
                    } => {
                        assert!(stdm.is_response);
                        assert_eq!(*trans_id, stdm.id);
                        assert_eq!(*rcode, stdm.rcode);
                        assert_eq!(answers.len(), stdm.answers.len());
                        // Non-TXT rdata must agree exactly; TXT may differ
                        // (all-strings vs first-only).
                        for (a, b) in answers.iter().zip(stdm.answers.iter()) {
                            assert_eq!(a.name, b.name);
                            assert_eq!(a.ttl, b.ttl);
                            if a.rtype != dns_types::TXT {
                                assert_eq!(a.rdata, b.rdata, "rtype {}", a.rtype);
                            }
                        }
                        agree += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            } else {
                d.take_events();
            }
        }
        assert_eq!(agree, total);
        assert!(total > 80, "total={total}");
    }
}

//! Frame codec conformance: round-trip property tests over random
//! requests/replies, and malformed-input tests asserting the decoder
//! returns *typed* errors — and never panics — on truncated frames,
//! oversized length prefixes, bad version bytes, non-UTF-8 tenant
//! ids and every other way a frame can rot on the wire.

use bnn_mcd::{CostReport, ModelCost, Uncertainty};
use bnn_net::wire::{
    decode_request, decode_response, encode_error, encode_reply, encode_request, read_frame,
    write_frame, DecodeError, EncodeError, ErrorCode, Request, Response, MAX_FRAME,
};
use bnn_serve::{Priority, Reply};
use bnn_tensor::{Shape4, Tensor};
use proptest::collection;
use proptest::prelude::*;
use std::io::Cursor;

fn request_from(
    tenant: &str,
    priority: Priority,
    deadline_us: Option<u64>,
    seed: Option<u64>,
    shape: (usize, usize, usize),
    bits: &[u32],
) -> Request {
    let (c, h, w) = shape;
    let data: Vec<f32> = (0..c * h * w)
        .map(|i| f32::from_bits(bits[i % bits.len()].wrapping_add(i as u32)))
        .collect();
    let mut req = Request::new(Tensor::from_vec(Shape4::new(1, c, h, w), data))
        .tenant(tenant)
        .priority(priority);
    if let Some(us) = deadline_us {
        req = req.deadline_us(us);
    }
    if let Some(s) = seed {
        req = req.seed(s);
    }
    req
}

/// Correlation ids are the only v1→v2 delta, so a corr-less request
/// must encode byte-for-byte as protocol v1 — v1 servers keep
/// working — while a corr-carrying one flips to v2.
#[test]
fn corr_gates_the_version_byte() {
    let plain = request_from("t", Priority::Normal, Some(9), Some(7), (1, 2, 2), &[3]);
    let mut v1 = Vec::new();
    encode_request(&plain, &mut v1).unwrap();
    assert_eq!(v1[0], 1, "corr-less requests stay protocol v1");

    let mut v2 = Vec::new();
    encode_request(&plain.clone().corr(55), &mut v2).unwrap();
    assert_eq!(v2[0], 2, "corr upgrades the frame to protocol v2");
    let back = decode_request(&v2).unwrap();
    assert_eq!(back.corr, Some(55));
    assert_eq!(back.seed, Some(7));
    assert_eq!(back.deadline_us, Some(9));
}

/// The corr flag bit is defined only for v2: a v1 frame carrying it
/// is typed `BadFlags`, not silently misparsed.
#[test]
fn corr_flag_on_a_v1_frame_is_typed() {
    let req = request_from("", Priority::Normal, None, None, (1, 1, 1), &[0]);
    let mut payload = Vec::new();
    encode_request(&req, &mut payload).unwrap();
    payload[2] |= 0x04; // FLAG_CORR on a version-1 frame
    assert_eq!(decode_request(&payload), Err(DecodeError::BadFlags(0x04)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_round_trips_bit_exactly(
        tenant in prop_oneof![
            Just(String::new()),
            Just("alpha".to_string()),
            Just("tenant-with-a-much-longer-name".to_string()),
            Just("uniçode-ok-✓".to_string()),
        ],
        priority in prop_oneof![Just(Priority::Low), Just(Priority::Normal), Just(Priority::High)],
        has_deadline in any::<bool>(),
        deadline_raw in 0u64..5_000_000,
        has_seed in any::<bool>(),
        seed_raw in any::<u64>(),
        has_corr in any::<bool>(),
        corr_raw in any::<u64>(),
        c in 1usize..5,
        h in 1usize..6,
        w in 1usize..6,
        bits in collection::vec(any::<u32>(), 1..32),
    ) {
        let deadline = has_deadline.then_some(deadline_raw);
        let seed = has_seed.then_some(seed_raw);
        let mut req = request_from(&tenant, priority, deadline, seed, (c, h, w), &bits);
        if has_corr {
            req = req.corr(corr_raw);
        }
        let mut payload = Vec::new();
        encode_request(&req, &mut payload).expect("encode");
        // Per-frame version negotiation: v2 iff a corr id rides along.
        prop_assert_eq!(payload[0], if has_corr { 2 } else { 1 });
        let back = decode_request(&payload).expect("decode");
        prop_assert_eq!(&back.tenant, &req.tenant);
        prop_assert_eq!(back.priority, req.priority);
        prop_assert_eq!(back.deadline_us, req.deadline_us);
        prop_assert_eq!(back.seed, req.seed);
        prop_assert_eq!(back.corr, req.corr);
        prop_assert_eq!(back.input.shape(), req.input.shape());
        // Bit-exact data round trip, NaN payloads included.
        let a: Vec<u32> = back.input.as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = req.input.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reply_round_trips_bit_exactly(
        id in any::<u64>(),
        seed in any::<u64>(),
        coalesced in 1usize..40,
        prob_bits in collection::vec(any::<u32>(), 2..12),
        entropy in any::<u64>(),
        samples in 1usize..1000,
        wall_bits in any::<u64>(),
        with_model in any::<bool>(),
        has_corr in any::<bool>(),
        corr_raw in any::<u64>(),
    ) {
        let probs: Vec<f32> = prob_bits.iter().map(|&b| f32::from_bits(b)).collect();
        let k = probs.len();
        let reply = Reply {
            id,
            probs: Tensor::from_vec(Shape4::new(1, k, 1, 1), probs.clone()),
            uncertainty: Uncertainty {
                predicted: k - 1,
                confidence: f32::from_bits(prob_bits[0]),
                entropy: f64::from_bits(entropy),
                mutual_information: 0.25,
            },
            cost: CostReport {
                samples,
                batch: 1,
                wall_ms: f64::from_bits(wall_bits),
                model: with_model.then_some(ModelCost {
                    cycles: 12_345,
                    latency_ms: 0.5,
                    mem_bytes: 1 << 20,
                }),
            },
            coalesced,
        };
        let corr = has_corr.then_some(corr_raw);
        let mut payload = Vec::new();
        encode_reply(&reply, seed, corr, &mut payload);
        prop_assert_eq!(payload[0], if has_corr { 2 } else { 1 });
        let back = match decode_response(&payload) {
            Ok(Response::Reply(r)) => r,
            other => panic!("bad decode: {other:?}"),
        };
        prop_assert_eq!(back.corr, corr);
        prop_assert_eq!(back.id, id);
        prop_assert_eq!(back.seed, seed);
        prop_assert_eq!(back.coalesced as usize, coalesced);
        let a: Vec<u32> = back.probs.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = probs.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(back.uncertainty.predicted, k - 1);
        prop_assert_eq!(back.uncertainty.entropy.to_bits(), entropy);
        prop_assert_eq!(back.cost.samples, samples);
        prop_assert_eq!(back.cost.wall_ms.to_bits(), wall_bits);
        prop_assert_eq!(back.cost.model.is_some(), with_model);
    }

    #[test]
    fn error_frames_round_trip(
        code in prop_oneof![
            Just(ErrorCode::Rejected),
            Just(ErrorCode::DeadlineExceeded),
            Just(ErrorCode::BackendFailed),
            Just(ErrorCode::Shutdown),
            Just(ErrorCode::RateLimited),
            Just(ErrorCode::Malformed),
            Just(ErrorCode::BadInput),
        ],
        has_id in any::<bool>(),
        id_raw in any::<u64>(),
        has_seed in any::<bool>(),
        seed_raw in any::<u64>(),
        has_corr in any::<bool>(),
        corr_raw in any::<u64>(),
    ) {
        let (id, seed) = (has_id.then_some(id_raw), has_seed.then_some(seed_raw));
        let corr = has_corr.then_some(corr_raw);
        let mut payload = Vec::new();
        encode_error(code, id, seed, corr, &mut payload);
        prop_assert_eq!(payload[0], if has_corr { 2 } else { 1 });
        match decode_response(&payload) {
            Ok(Response::Error(e)) => {
                prop_assert_eq!(e.code, code);
                prop_assert_eq!(e.id, id);
                prop_assert_eq!(e.seed, seed);
                prop_assert_eq!(e.corr, corr);
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    /// The core no-panic guarantee: arbitrary byte soup may decode or
    /// may fail with a typed error, but must never panic.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in collection::vec(any::<u8>(), 0..200),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Chopping a valid frame anywhere yields a typed error (almost
    /// always `Truncated`; never a panic, never a bogus `Ok`).
    #[test]
    fn truncations_of_valid_frames_fail_typed(
        cut_fraction in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let req = request_from("t", Priority::Normal, Some(123), Some(seed), (2, 3, 3), &[seed as u32]);
        let mut payload = Vec::new();
        encode_request(&req, &mut payload).expect("encode");
        let cut = ((payload.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < payload.len());
        prop_assert!(decode_request(&payload[..cut]).is_err());
    }
}

#[test]
fn truncated_frame_reports_expected_and_got() {
    let req = request_from("acme", Priority::High, None, None, (1, 2, 2), &[7]);
    let mut payload = Vec::new();
    encode_request(&req, &mut payload).unwrap();
    payload.truncate(payload.len() - 1);
    match decode_request(&payload) {
        Err(DecodeError::Truncated { expected, got }) => {
            assert_eq!(expected, 4, "last field is one f32");
            assert_eq!(got, 3);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn bad_version_byte_is_typed() {
    let req = request_from("", Priority::Normal, None, None, (1, 1, 1), &[0]);
    let mut payload = Vec::new();
    encode_request(&req, &mut payload).unwrap();
    payload[0] = 99;
    assert_eq!(decode_request(&payload), Err(DecodeError::BadVersion(99)));
    assert_eq!(decode_response(&payload), Err(DecodeError::BadVersion(99)));
}

#[test]
fn bad_kind_and_priority_and_flags_are_typed() {
    let req = request_from("", Priority::Normal, None, None, (1, 1, 1), &[0]);
    let mut payload = Vec::new();
    encode_request(&req, &mut payload).unwrap();

    let mut bad_kind = payload.clone();
    bad_kind[1] = 9;
    assert_eq!(decode_request(&bad_kind), Err(DecodeError::BadKind(9)));
    assert_eq!(decode_response(&bad_kind), Err(DecodeError::BadKind(9)));

    let mut bad_flags = payload.clone();
    bad_flags[2] = 0x80;
    assert_eq!(decode_request(&bad_flags), Err(DecodeError::BadFlags(0x80)));

    let mut bad_priority = payload.clone();
    bad_priority[3] = 7;
    assert_eq!(
        decode_request(&bad_priority),
        Err(DecodeError::BadPriority(7))
    );
}

#[test]
fn non_utf8_tenant_is_typed() {
    let req = request_from("ab", Priority::Low, None, None, (1, 1, 1), &[0]);
    let mut payload = Vec::new();
    encode_request(&req, &mut payload).unwrap();
    // Tenant bytes sit right after the 5-byte fixed header.
    payload[5] = 0xFF;
    payload[6] = 0xFE;
    assert_eq!(decode_request(&payload), Err(DecodeError::BadTenant));
}

#[test]
fn multi_item_shape_is_rejected_both_ways() {
    // Encoder refuses to build a multi-item request…
    let req = Request::new(Tensor::zeros(Shape4::new(2, 1, 1, 1)));
    let mut payload = Vec::new();
    assert_eq!(
        encode_request(&req, &mut payload),
        Err(EncodeError::MultiItemInput(2))
    );
    // …and the decoder refuses one crafted on the wire, so the
    // admission layer's single-item assert is unreachable from TCP.
    let good = request_from("", Priority::Normal, None, None, (1, 1, 1), &[0]);
    encode_request(&good, &mut payload).unwrap();
    let n_offset = 5; // ver, kind, flags, priority, tenant_len — then n
    payload[n_offset..n_offset + 4].copy_from_slice(&2u32.to_le_bytes());
    match decode_request(&payload) {
        Err(DecodeError::BadShape { n: 2, .. }) => {}
        other => panic!("expected BadShape, got {other:?}"),
    }
}

/// Build the minimal 21-byte request frame (anonymous tenant, no
/// deadline/seed, no data) carrying an arbitrary wire shape.
fn shape_only_frame(n: u32, c: u32, h: u32, w: u32) -> Vec<u8> {
    let mut payload = vec![1u8, 1, 0, 1, 0]; // ver, kind, flags, priority, tenant_len
    for dim in [n, c, h, w] {
        payload.extend_from_slice(&dim.to_le_bytes());
    }
    payload
}

#[test]
fn overflowing_shape_products_are_typed_not_panics() {
    // The REVIEW attack frame: c·h·w = 2^31 · 2^31 · 4 = 2^64 wraps
    // the u64 element count to 0, which once smuggled past the frame
    // bound builds a shape/data-length-mismatched tensor. The decoder
    // must reject it as BadShape — debug builds used to panic here.
    let cases = [
        (1u32, 1 << 31, 1 << 31, 4u32),
        (1, u32::MAX, u32::MAX, u32::MAX),
        (1, 1 << 31, 4, 1 << 31),
        // No u64 overflow, but the byte length exceeds the frame
        // bound — still BadShape.
        (1, 1 << 31, 2, 4),
    ];
    for (n, c, h, w) in cases {
        match decode_request(&shape_only_frame(n, c, h, w)) {
            Err(DecodeError::BadShape { .. }) => {}
            other => panic!("({n},{c},{h},{w}): expected BadShape, got {other:?}"),
        }
    }
    // A maximal-but-legal shape still decodes (as Truncated here,
    // since the frame carries no data — the shape check passed).
    let elems = (MAX_FRAME / 4) as u32;
    match decode_request(&shape_only_frame(1, elems, 1, 1)) {
        Err(DecodeError::Truncated { .. }) => {}
        other => panic!("expected Truncated past the shape check, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_typed() {
    let req = request_from("", Priority::Normal, None, None, (1, 1, 1), &[0]);
    let mut payload = Vec::new();
    encode_request(&req, &mut payload).unwrap();
    payload.push(0xAB);
    assert_eq!(
        decode_request(&payload),
        Err(DecodeError::TrailingBytes { extra: 1 })
    );
}

#[test]
fn bad_error_code_is_typed() {
    let mut payload = Vec::new();
    encode_error(ErrorCode::Rejected, None, None, None, &mut payload);
    payload[2] = 0;
    assert_eq!(decode_response(&payload), Err(DecodeError::BadErrorCode(0)));
}

#[test]
fn frames_round_trip_through_a_stream() {
    let mut buf = Vec::new();
    write_frame(&mut buf, b"hello").unwrap();
    write_frame(&mut buf, b"").unwrap();
    let mut cursor = Cursor::new(buf);
    assert_eq!(
        read_frame(&mut cursor).unwrap().as_deref(),
        Some(&b"hello"[..])
    );
    assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b""[..]));
    // Clean EOF between frames is the orderly-close signal.
    assert!(read_frame(&mut cursor).unwrap().is_none());
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
    let mut cursor = Cursor::new(huge.to_vec());
    let err = read_frame(&mut cursor).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("oversized"), "unexpected message: {msg}");
}

#[test]
fn mid_frame_eof_is_an_error_not_a_clean_close() {
    let mut buf = Vec::new();
    write_frame(&mut buf, b"hello").unwrap();
    buf.truncate(buf.len() - 2); // lose the last two payload bytes
    let mut cursor = Cursor::new(buf);
    let err = read_frame(&mut cursor).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn write_frame_refuses_oversized_payloads() {
    struct NullSink;
    impl std::io::Write for NullSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let payload = vec![0u8; MAX_FRAME + 1];
    let err = write_frame(&mut NullSink, &payload).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn tenant_longer_than_255_bytes_is_an_encode_error() {
    let req = Request::new(Tensor::zeros(Shape4::new(1, 1, 1, 1))).tenant(&"x".repeat(300));
    let mut payload = Vec::new();
    assert_eq!(
        encode_request(&req, &mut payload),
        Err(EncodeError::TenantTooLong(300))
    );
}

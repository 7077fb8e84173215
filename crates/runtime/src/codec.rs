//! Wire codec for ghost-window and level-window message payloads.
//!
//! Layout (little-endian):
//! `[kind: u8][region: 6 × i32][payload]` where payload is the region's
//! cells in x-fastest order, `f64` or `u8` per `kind`.

use bytes::{BufMut, Bytes, BytesMut};
use uintah_grid::{CcVariable, FieldData, IntVector, Region};

const KIND_F64: u8 = 0;
const KIND_U8: u8 = 1;

/// Encode a window of `src` (clipped to `window ∩ src.region`).
pub(crate) fn encode_window(src: &FieldData, window: &Region) -> Bytes {
    match src {
        FieldData::F64(v) => {
            let (w, data) = v.pack_window(window);
            let mut out = BytesMut::with_capacity(1 + 24 + data.len() * 8);
            out.put_u8(KIND_F64);
            put_region(&mut out, &w);
            for x in data {
                out.put_f64_le(x);
            }
            out.freeze()
        }
        FieldData::U8(v) => {
            let (w, data) = v.pack_window(window);
            let mut out = BytesMut::with_capacity(1 + 24 + data.len());
            out.put_u8(KIND_U8);
            put_region(&mut out, &w);
            out.put_slice(&data);
            out.freeze()
        }
    }
}

fn put_region(out: &mut BytesMut, r: &Region) {
    for v in [r.lo(), r.hi()] {
        out.put_i32_le(v.x);
        out.put_i32_le(v.y);
        out.put_i32_le(v.z);
    }
}

fn read_i32(buf: &[u8], at: usize) -> i32 {
    i32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

/// Decode a payload produced by [`encode_window`] into `(region, field)`
/// where the field covers exactly the region.
pub(crate) fn decode_window(payload: &[u8]) -> (Region, FieldData) {
    assert!(payload.len() >= 25, "short window payload");
    let kind = payload[0];
    let lo = IntVector::new(read_i32(payload, 1), read_i32(payload, 5), read_i32(payload, 9));
    let hi = IntVector::new(read_i32(payload, 13), read_i32(payload, 17), read_i32(payload, 21));
    let region = Region::new(lo, hi);
    let n = region.volume();
    let body = &payload[25..];
    match kind {
        KIND_F64 => {
            assert_eq!(body.len(), n * 8, "f64 payload size mismatch");
            let data = body
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            (region, FieldData::F64(CcVariable::from_vec(region, data)))
        }
        KIND_U8 => {
            assert_eq!(body.len(), n, "u8 payload size mismatch");
            (region, FieldData::U8(CcVariable::from_vec(region, body.to_vec())))
        }
        k => panic!("unknown window kind {k}"),
    }
}

/// Magic byte distinguishing bundle payloads from single windows (whose
/// first byte is a kind in {0, 1}).
const BUNDLE_MAGIC: u8 = 0xB7;

/// Encode several already-encoded windows into one payload (the regrid
/// migration's wire format: every variable of a moving patch in one
/// message). Entries are `(var_id, level, window payload)` where each
/// payload comes from [`encode_window`].
pub(crate) fn encode_bundle(entries: &[(u8, u8, Bytes)]) -> Bytes {
    assert!(entries.len() <= u16::MAX as usize, "bundle too large");
    let mut out = BytesMut::new();
    out.put_u8(BUNDLE_MAGIC);
    out.put_u16_le(entries.len() as u16);
    for (var_id, level, payload) in entries {
        out.put_u8(*var_id);
        out.put_u8(*level);
        out.put_u32_le(payload.len() as u32);
        out.put_slice(payload);
    }
    out.freeze()
}

/// True if `payload` is a bundle (vs a single window).
pub(crate) fn is_bundle(payload: &[u8]) -> bool {
    payload.first() == Some(&BUNDLE_MAGIC)
}

/// Decode a payload produced by [`encode_bundle`]:
/// `(var_id, level, region, data)` per entry.
pub(crate) fn decode_bundle(payload: &[u8]) -> Vec<(u8, u8, Region, FieldData)> {
    assert!(is_bundle(payload), "not a bundle payload");
    let count = u16::from_le_bytes(payload[1..3].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(count);
    let mut at = 3usize;
    for _ in 0..count {
        let var_id = payload[at];
        let level = payload[at + 1];
        let len = u32::from_le_bytes(payload[at + 2..at + 6].try_into().unwrap()) as usize;
        at += 6;
        let (region, data) = decode_window(&payload[at..at + len]);
        at += len;
        out.push((var_id, level, region, data));
    }
    assert_eq!(at, payload.len(), "trailing bytes in bundle");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let mut v = CcVariable::<f64>::new(Region::cube(4));
        v.fill_with(|c| c.x as f64 * 1.5 + c.y as f64 - c.z as f64 * 0.25);
        let src = FieldData::F64(v.clone());
        let w = Region::new(IntVector::new(1, 0, 2), IntVector::new(4, 3, 4));
        let bytes = encode_window(&src, &w);
        let (region, decoded) = decode_window(&bytes);
        assert_eq!(region, w);
        for c in w.cells() {
            assert_eq!(decoded.as_f64()[c], v[c]);
        }
    }

    #[test]
    fn u8_roundtrip() {
        let mut v = CcVariable::<u8>::new(Region::cube(3));
        v.fill_with(|c| (c.x + 3 * c.y + 9 * c.z) as u8);
        let src = FieldData::U8(v.clone());
        let bytes = encode_window(&src, &Region::cube(3));
        let (region, decoded) = decode_window(&bytes);
        assert_eq!(region, Region::cube(3));
        for c in region.cells() {
            assert_eq!(decoded.as_u8()[c], v[c]);
        }
    }

    #[test]
    fn window_clipped_to_source() {
        let v = CcVariable::<f64>::filled(Region::cube(2), 3.0);
        let src = FieldData::F64(v);
        // Request a window larger than the source: clipped on encode.
        let bytes = encode_window(&src, &Region::cube(10));
        let (region, _) = decode_window(&bytes);
        assert_eq!(region, Region::cube(2));
    }

    #[test]
    #[should_panic(expected = "short window payload")]
    fn truncated_payload_rejected() {
        decode_window(&[0u8; 10]);
    }

    #[test]
    fn bundle_roundtrip_mixed_types() {
        let mut a = CcVariable::<f64>::new(Region::cube(4));
        a.fill_with(|c| c.x as f64 + 0.5 * c.z as f64);
        let b = CcVariable::<u8>::filled(Region::cube(4), 3u8);
        let fa = FieldData::F64(a.clone());
        let fb = FieldData::U8(b.clone());
        let w1 = Region::new(IntVector::ZERO, IntVector::new(2, 4, 4));
        let w2 = Region::cube(4);
        let bytes = encode_bundle(&[
            (1, 0, encode_window(&fa, &w1)),
            (3, 1, encode_window(&fb, &w2)),
        ]);
        assert!(is_bundle(&bytes));
        let entries = decode_bundle(&bytes);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 1);
        assert_eq!(entries[0].1, 0);
        assert_eq!(entries[0].2, w1);
        for c in w1.cells() {
            assert_eq!(entries[0].3.as_f64()[c], a[c]);
        }
        assert_eq!(entries[1].0, 3);
        assert_eq!(entries[1].1, 1);
        assert_eq!(entries[1].3.as_u8()[IntVector::ZERO], 3);
    }

    #[test]
    fn single_window_is_not_a_bundle() {
        let v = FieldData::F64(CcVariable::filled(Region::cube(2), 1.0));
        let bytes = encode_window(&v, &Region::cube(2));
        assert!(!is_bundle(&bytes));
    }

    #[test]
    #[should_panic(expected = "not a bundle")]
    fn decode_bundle_rejects_single() {
        let v = FieldData::F64(CcVariable::filled(Region::cube(2), 1.0));
        let bytes = encode_window(&v, &Region::cube(2));
        decode_bundle(&bytes);
    }
}

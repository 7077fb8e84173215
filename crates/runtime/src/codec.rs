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
}

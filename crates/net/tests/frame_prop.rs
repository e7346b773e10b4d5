//! Property test for `FrameDecoder` chunk-split independence: however a
//! byte stream is sliced — 1-byte dribble, random fragments, or one
//! whole-stream delivery — reassembly must be byte-identical and typed
//! errors must be stable. No external property-test crate: splits are
//! driven by a tiny deterministic xorshift generator over many seeds.

use seal_net::{Frame, FrameDecoder, FrameError};

/// Deterministic xorshift64* — just enough randomness to pick split
/// points; seeded per-case so failures reproduce exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A corpus of frames covering every kind, payload sizes from empty
/// through several read-buffer multiples, and boundary-ish lengths.
fn corpus() -> Vec<Frame> {
    let mut frames = Vec::new();
    let sizes = [0usize, 1, 2, 19, 20, 21, 255, 256, 1023, 4096, 4097, 9000];
    for (i, &len) in sizes.iter().enumerate() {
        let payload: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8).collect();
        let seq = i as u64 * 1000 + 7;
        let tenant = i as u32;
        let frame = match i % 4 {
            0 => Frame::request(tenant, seq, payload),
            1 => Frame::response(tenant, seq, payload),
            2 => Frame::reject(tenant, seq, payload),
            _ => Frame::goaway(core::str::from_utf8(&vec![b'g'; len.min(64)]).unwrap()),
        };
        frames.push(frame);
    }
    frames
}

fn wire(frames: &[Frame]) -> Vec<u8> {
    frames.iter().flat_map(Frame::encode).collect()
}

/// Feeds `stream` through a decoder in chunks chosen by `next_chunk`,
/// collecting decoded frames until the stream is exhausted or an error
/// surfaces. Returns the frames plus the terminal error, if any.
fn decode_chunked(
    stream: &[u8],
    mut next_chunk: impl FnMut(usize) -> usize,
) -> (Vec<Frame>, Option<FrameError>) {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < stream.len() {
        let remaining = stream.len() - pos;
        let take = next_chunk(remaining).clamp(1, remaining);
        dec.push(&stream[pos..pos + take]);
        pos += take;
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => out.push(frame),
                Ok(None) => break,
                Err(e) => return (out, Some(e)),
            }
        }
    }
    (out, None)
}

#[test]
fn chunk_splits_never_change_reassembly() {
    let frames = corpus();
    let stream = wire(&frames);
    // Reference: whole-stream delivery.
    let (whole, err) = decode_chunked(&stream, |r| r);
    assert!(err.is_none());
    assert_eq!(whole, frames, "whole-stream reference must roundtrip");

    // 1-byte dribble — the pathological slow sender.
    let (dribbled, err) = decode_chunked(&stream, |_| 1);
    assert!(err.is_none());
    assert_eq!(dribbled, frames, "1-byte dribble diverged");

    // Randomized split boundaries across many seeds, mixing tiny and
    // large fragments so header/payload boundaries land everywhere.
    for seed in 1..=200u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (got, err) = decode_chunked(&stream, |_| {
            if rng.below(4) == 0 {
                1 + rng.below(3) as usize // tiny fragment
            } else {
                1 + rng.below(2048) as usize
            }
        });
        assert!(err.is_none(), "seed {seed}: unexpected error {err:?}");
        assert_eq!(got, frames, "seed {seed}: reassembly diverged");
    }
}

#[test]
fn typed_errors_are_stable_across_chunkings() {
    let frames = corpus();
    let mut stream = wire(&frames);
    // Corrupt the magic of the 4th frame: everything before it must
    // still decode, and the error must be identical however we split.
    let offset: usize = frames[..3].iter().map(|f| f.encode().len()).sum();
    stream[offset] ^= 0xFF;

    let (reference, reference_err) = decode_chunked(&stream, |r| r);
    assert_eq!(reference.as_slice(), &frames[..3]);
    let reference_err = reference_err.expect("corrupted magic must error");
    assert!(matches!(reference_err, FrameError::BadMagic { .. }));

    for seed in 1..=100u64 {
        let mut rng = Rng(seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1);
        let (got, err) = decode_chunked(&stream, |_| 1 + rng.below(97) as usize);
        assert_eq!(got.as_slice(), &frames[..3], "seed {seed}: prefix diverged");
        assert_eq!(
            err,
            Some(reference_err.clone()),
            "seed {seed}: error diverged"
        );
    }

    // A bad kind byte deeper in the stream is equally stable.
    let mut stream = wire(&frames);
    let kind_off: usize = frames[..5].iter().map(|f| f.encode().len()).sum::<usize>() + 3;
    stream[kind_off] = 0xEE;
    let (reference, reference_err) = decode_chunked(&stream, |r| r);
    assert_eq!(reference.as_slice(), &frames[..5]);
    let reference_err = reference_err.expect("bad kind must error");
    for seed in 1..=100u64 {
        let mut rng = Rng(seed ^ 0xABCD_EF01_2345_6789);
        let (got, err) = decode_chunked(&stream, |_| 1 + rng.below(13) as usize);
        assert_eq!(got.as_slice(), &frames[..5], "seed {seed}: prefix diverged");
        assert_eq!(
            err,
            Some(reference_err.clone()),
            "seed {seed}: error diverged"
        );
    }

    // Truncation is not an error at the decoder layer: a clean prefix
    // plus mid_frame() is how the reactor types the close.
    let stream = wire(&frames);
    let cut = stream.len() - 5;
    let mut dec = FrameDecoder::new();
    dec.push(&stream[..cut]);
    let mut got = Vec::new();
    while let Ok(Some(f)) = dec.next_frame() {
        got.push(f);
    }
    assert_eq!(got.as_slice(), &frames[..frames.len() - 1]);
    assert!(dec.mid_frame(), "truncated tail must read as mid-frame");
}

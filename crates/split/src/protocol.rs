//! Wire messages exchanged between end-systems and the centralized server,
//! with byte-accurate encoding for communication-cost accounting.
//!
//! # Wire format (version 1)
//!
//! Every message is framed with a 14-byte integrity header followed by a
//! message-kind-specific payload:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic            b"STSL"
//!      4     1  version          0x01
//!      5     1  kind             0xA5 activation / 0x5A gradient
//!      6     4  payload length   u32 LE, bytes after the header
//!     10     4  CRC32 (IEEE)     u32 LE, over the payload bytes
//!     14     …  payload
//! ```
//!
//! The payload layout is unchanged from the pre-versioned format:
//! `from/to (u32) | epoch (u32) | batch (u32) | tensor | [targets]` where a
//! tensor is `rank (u8) | dims (u32 LE each) | data (f32 LE each)` and
//! targets are `count (u32) | label (u16 LE each)`.
//!
//! [`ActivationMsg::decode`]/[`GradientMsg::decode`] verify the full frame
//! including the checksum and never panic on hostile input; they return a
//! typed [`DecodeError`] instead. [`ActivationMsg::decode_lenient`] parses
//! CRC-mismatched-but-parseable frames too and *reports* the checksum
//! verdict instead of enforcing it — the "guard off" path used to measure
//! what silent corruption does to training.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use stsl_simnet::EndSystemId;
use stsl_tensor::{Shape, Tensor};

/// Leading magic bytes of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"STSL";
/// Current wire-format version.
pub const WIRE_VERSION: u8 = 1;
/// Frame-kind byte for [`ActivationMsg`].
pub const KIND_ACTIVATION: u8 = 0xA5;
/// Frame-kind byte for [`GradientMsg`].
pub const KIND_GRADIENT: u8 = 0x5A;
/// Size of the integrity header: magic + version + kind + length + CRC32.
pub const WIRE_HEADER_BYTES: usize = 4 + 1 + 1 + 4 + 4;

/// Highest tensor rank accepted on the wire (matches `[n, c, h, w]` plus
/// slack; anything larger is corruption, not a real tensor).
const MAX_WIRE_RANK: usize = 8;

/// Fixed per-payload header: sender id (u32), epoch (u32), batch (u32).
const PAYLOAD_HEADER_BYTES: usize = 12;

/// The reflected IEEE polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables for [`crc32`]: table `k` maps a byte `b` to the
/// CRC register that `b` followed by `k` zero bytes leaves, i.e. `b`
/// shifted through `8·(k + 1)` steps. One lookup per table then folds
/// eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// `steps` shift-xor steps of the reflected CRC register: the bitwise
/// definition the tables are built from.
const fn crc_shift(mut crc: u32, steps: u32) -> u32 {
    let mut i = 0;
    while i < steps {
        crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
        i += 1;
    }
    crc
}

/// Builds [`CRC_TABLES`] at compile time.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rest = tables.as_mut_slice();
    let mut steps = 8;
    while let Some((table, tail)) = rest.split_first_mut() {
        let mut entries = table.as_mut_slice();
        let mut byte = 0;
        while let Some((entry, more)) = entries.split_first_mut() {
            *entry = crc_shift(byte, steps);
            entries = more;
            byte += 1;
        }
        rest = tail;
        steps += 8;
    }
    tables
}

/// One table lookup. A byte is always in bounds, so the fallback never
/// runs and the check compiles away.
#[inline]
fn crc_lookup(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// Computes the IEEE CRC32 (reflected, polynomial `0xEDB88320`) of `data`.
///
/// Slicing-by-8 over [`CRC_TABLES`], which are built at compile time:
/// each eight-byte word is XORed with the register and folded with one
/// lookup per byte, and the last `len % 8` bytes go through the bitwise
/// steps. The workspace is offline and brings no checksum crate.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word = <[u8; 8]>::try_from(word).unwrap_or_default();
        let lanes = (u64::from_le_bytes(word) ^ u64::from(crc)).to_le_bytes();
        // Byte i of the word still has 7 − i bytes to pass through.
        crc = CRC_TABLES
            .iter()
            .rev()
            .zip(lanes)
            .fold(0, |acc, (table, byte)| acc ^ crc_lookup(table, byte));
    }
    for &byte in words.remainder() {
        crc = crc_shift(crc ^ u32::from(byte), 8);
    }
    !crc
}

/// Why a frame failed to decode. Carried inside
/// [`ProtocolError::Decode`](crate::client::ProtocolError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the field being read.
    Truncated {
        /// Bytes the current field needed.
        needed: usize,
        /// Bytes actually left in the buffer.
        have: usize,
    },
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The version byte is one this decoder does not understand.
    UnsupportedVersion {
        /// The version byte found.
        got: u8,
    },
    /// The kind byte does not match the message type being decoded.
    WrongKind {
        /// Kind byte the caller expected.
        expected: u8,
        /// Kind byte found in the frame.
        got: u8,
    },
    /// The declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The CRC32 over the payload does not match the header checksum.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The payload is structurally impossible (bad rank, dims that do not
    /// match the byte count, trailing garbage, …).
    Malformed {
        /// Which structural invariant failed.
        what: &'static str,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: field needs {needed} bytes, {have} left"
                )
            }
            DecodeError::BadMagic { got } => write!(f, "bad magic {got:02x?}"),
            DecodeError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got}")
            }
            DecodeError::WrongKind { expected, got } => {
                write!(
                    f,
                    "wrong frame kind: expected {expected:#04x}, got {got:#04x}"
                )
            }
            DecodeError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "payload length mismatch: header says {declared}, have {actual}"
                )
            }
            DecodeError::ChecksumMismatch { declared, computed } => {
                write!(
                    f,
                    "checksum mismatch: header {declared:#010x}, computed {computed:#010x}"
                )
            }
            DecodeError::Malformed { what } => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Identifies one mini-batch computation within a training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchId {
    /// 0-based epoch.
    pub epoch: u32,
    /// 0-based batch index within the client's epoch.
    pub batch: u32,
}

impl std::fmt::Display for BatchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}b{}", self.epoch, self.batch)
    }
}

/// Uplink message: smashed activations plus labels.
///
/// In the paper's configuration the server owns the output layer and the
/// loss, so labels travel with the activations (standard split learning
/// *with* label sharing; the raw images never leave the end-system).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationMsg {
    /// Originating end-system.
    pub from: EndSystemId,
    /// Which batch this is.
    pub batch_id: BatchId,
    /// Cut-layer activations, `[n, c, h, w]` (or `[n, f]` for dense cuts).
    pub activations: Tensor,
    /// Class labels, one per sample.
    pub targets: Vec<usize>,
}

/// Downlink message: gradient of the loss w.r.t. the cut activations.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientMsg {
    /// Destination end-system (the one that sent the activations).
    pub to: EndSystemId,
    /// Which batch the gradient answers.
    pub batch_id: BatchId,
    /// Gradient tensor, same shape as the activations.
    pub grad: Tensor,
}

fn tensor_encoded_len(t: &Tensor) -> usize {
    1 + 4 * t.rank() + 4 * t.len()
}

/// Exact size in bytes of a frame whose payload carries one tensor and
/// no labels: integrity header, payload header, then the tensor. This is
/// a [`GradientMsg`] frame, and every leg of the label-private U-shaped
/// protocol.
pub fn tensor_frame_len(t: &Tensor) -> usize {
    WIRE_HEADER_BYTES + PAYLOAD_HEADER_BYTES + tensor_encoded_len(t)
}

fn put_tensor(buf: &mut BytesMut, t: &Tensor) {
    buf.put_u8(t.rank() as u8);
    for &d in t.dims() {
        buf.put_u32_le(d as u32);
    }
    for &v in t.as_slice() {
        buf.put_f32_le(v);
    }
}

/// Checked read helpers: every primitive read verifies `remaining()` first
/// so hostile/truncated buffers surface as [`DecodeError::Truncated`] rather
/// than a panic inside the `bytes` accessors.
fn need(buf: &Bytes, n: usize) -> Result<(), DecodeError> {
    let have = buf.remaining();
    if have < n {
        return Err(DecodeError::Truncated { needed: n, have });
    }
    Ok(())
}

fn read_u8(buf: &mut Bytes) -> Result<u8, DecodeError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn read_u16(buf: &mut Bytes) -> Result<u16, DecodeError> {
    need(buf, 2)?;
    Ok(buf.get_u16_le())
}

fn read_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn read_f32(buf: &mut Bytes) -> Result<f32, DecodeError> {
    need(buf, 4)?;
    Ok(buf.get_f32_le())
}

fn get_tensor(buf: &mut Bytes) -> Result<Tensor, DecodeError> {
    let rank = read_u8(buf)? as usize;
    if rank == 0 || rank > MAX_WIRE_RANK {
        return Err(DecodeError::Malformed {
            what: "tensor rank out of range",
        });
    }
    let mut dims = Vec::with_capacity(rank);
    let mut len = 1usize;
    for _ in 0..rank {
        let d = read_u32(buf)? as usize;
        len = len.checked_mul(d).ok_or(DecodeError::Malformed {
            what: "tensor volume overflows",
        })?;
        dims.push(d);
    }
    // One up-front bound check keeps a lying dim field from turning into a
    // multi-gigabyte allocation before the truncation is noticed.
    need(buf, 4 * len)?;
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(read_f32(buf)?);
    }
    Ok(Tensor::from_vec(data, Shape::from(dims)))
}

/// Validates the 14-byte frame header and returns the payload as a fresh
/// read cursor plus the CRC verdict. `verify_crc` distinguishes `decode`
/// (mismatch is an error) from `decode_lenient` (mismatch is reported).
fn open_frame(mut bytes: Bytes, kind: u8, verify_crc: bool) -> Result<(Bytes, bool), DecodeError> {
    need(&bytes, WIRE_HEADER_BYTES)?;
    let magic_vec = bytes.copy_bytes(4);
    let Ok(magic) = <[u8; 4]>::try_from(magic_vec.as_slice()) else {
        // Unreachable after the header-size check, but a decoder for
        // hostile bytes refuses rather than trusts.
        return Err(DecodeError::Truncated {
            needed: 4,
            have: magic_vec.len(),
        });
    };
    if magic != WIRE_MAGIC {
        return Err(DecodeError::BadMagic { got: magic });
    }
    let version = bytes.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion { got: version });
    }
    let got_kind = bytes.get_u8();
    if got_kind != kind {
        return Err(DecodeError::WrongKind {
            expected: kind,
            got: got_kind,
        });
    }
    let declared = bytes.get_u32_le() as usize;
    let crc_header = bytes.get_u32_le();
    let payload = bytes.as_unread();
    if declared != payload.len() {
        return Err(DecodeError::LengthMismatch {
            declared,
            actual: payload.len(),
        });
    }
    let computed = crc32(payload);
    let crc_ok = computed == crc_header;
    if verify_crc && !crc_ok {
        return Err(DecodeError::ChecksumMismatch {
            declared: crc_header,
            computed,
        });
    }
    Ok((Bytes::copy_from_slice(payload), crc_ok))
}

/// Writes the frame header for a payload of the given bytes.
fn seal_frame(kind: u8, payload: &BytesMut) -> Bytes {
    let mut framed = BytesMut::with_capacity(WIRE_HEADER_BYTES + payload.len());
    framed.put_slice(&WIRE_MAGIC);
    framed.put_u8(WIRE_VERSION);
    framed.put_u8(kind);
    framed.put_u32_le(payload.len() as u32);
    framed.put_u32_le(crc32(payload.as_ref()));
    framed.put_slice(payload.as_ref());
    framed.freeze()
}

impl ActivationMsg {
    /// Exact size of the encoded message in bytes (drives the simulated
    /// serialization delay and the communication-cost experiment).
    pub fn encoded_len(&self) -> usize {
        WIRE_HEADER_BYTES
            + PAYLOAD_HEADER_BYTES
            + tensor_encoded_len(&self.activations)
            + 4
            + 2 * self.targets.len()
    }

    /// Serializes to a framed, checksummed byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len() - WIRE_HEADER_BYTES);
        buf.put_u32_le(self.from.0 as u32);
        buf.put_u32_le(self.batch_id.epoch);
        buf.put_u32_le(self.batch_id.batch);
        put_tensor(&mut buf, &self.activations);
        buf.put_u32_le(self.targets.len() as u32);
        for &t in &self.targets {
            buf.put_u16_le(t as u16);
        }
        seal_frame(KIND_ACTIVATION, &buf)
    }

    /// Deserializes and fully validates a frame produced by
    /// [`ActivationMsg::encode`], including the CRC32 payload checksum.
    ///
    /// Never panics: truncated, garbled or mis-typed input returns a
    /// [`DecodeError`].
    pub fn decode(bytes: Bytes) -> Result<Self, DecodeError> {
        let (payload, _) = open_frame(bytes, KIND_ACTIVATION, true)?;
        Self::parse_payload(payload)
    }

    /// Deserializes without *enforcing* the checksum — the "guard off"
    /// path — but still computes and reports it: the second element is
    /// `true` iff the CRC32 matched.
    ///
    /// Structural validation always applies (magic, version, kind, declared
    /// length, tensor shape), so this never panics; it lets
    /// bit-flipped-but-parseable payloads through as silently corrupt data
    /// while telling the caller the frame was dirty.
    pub fn decode_lenient(bytes: Bytes) -> Result<(Self, bool), DecodeError> {
        let (payload, crc_ok) = open_frame(bytes, KIND_ACTIVATION, false)?;
        Ok((Self::parse_payload(payload)?, crc_ok))
    }

    fn parse_payload(mut buf: Bytes) -> Result<Self, DecodeError> {
        let from = EndSystemId(read_u32(&mut buf)? as usize);
        let epoch = read_u32(&mut buf)?;
        let batch = read_u32(&mut buf)?;
        let activations = get_tensor(&mut buf)?;
        let n = read_u32(&mut buf)? as usize;
        if buf.remaining() != 2 * n {
            return Err(DecodeError::Malformed {
                what: "target count disagrees with payload",
            });
        }
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            targets.push(read_u16(&mut buf)? as usize);
        }
        Ok(ActivationMsg {
            from,
            batch_id: BatchId { epoch, batch },
            activations,
            targets,
        })
    }
}

impl GradientMsg {
    /// Exact size of the encoded message in bytes.
    pub fn encoded_len(&self) -> usize {
        tensor_frame_len(&self.grad)
    }

    /// Serializes to a framed, checksummed byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len() - WIRE_HEADER_BYTES);
        buf.put_u32_le(self.to.0 as u32);
        buf.put_u32_le(self.batch_id.epoch);
        buf.put_u32_le(self.batch_id.batch);
        put_tensor(&mut buf, &self.grad);
        seal_frame(KIND_GRADIENT, &buf)
    }

    /// Deserializes and fully validates a frame produced by
    /// [`GradientMsg::encode`], including the CRC32 payload checksum.
    ///
    /// Never panics: truncated, garbled or mis-typed input returns a
    /// [`DecodeError`].
    pub fn decode(bytes: Bytes) -> Result<Self, DecodeError> {
        let (payload, _) = open_frame(bytes, KIND_GRADIENT, true)?;
        Self::parse_payload(payload)
    }

    /// Deserializes without *enforcing* the checksum, reporting the CRC
    /// verdict as the second element. See [`ActivationMsg::decode_lenient`].
    pub fn decode_lenient(bytes: Bytes) -> Result<(Self, bool), DecodeError> {
        let (payload, crc_ok) = open_frame(bytes, KIND_GRADIENT, false)?;
        Ok((Self::parse_payload(payload)?, crc_ok))
    }

    fn parse_payload(mut buf: Bytes) -> Result<Self, DecodeError> {
        let to = EndSystemId(read_u32(&mut buf)? as usize);
        let epoch = read_u32(&mut buf)?;
        let batch = read_u32(&mut buf)?;
        let grad = get_tensor(&mut buf)?;
        if buf.remaining() != 0 {
            return Err(DecodeError::Malformed {
                what: "trailing bytes after gradient",
            });
        }
        Ok(GradientMsg {
            to,
            batch_id: BatchId { epoch, batch },
            grad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_tensor::init::rng_from_seed;

    fn sample_activation() -> ActivationMsg {
        ActivationMsg {
            from: EndSystemId(3),
            batch_id: BatchId {
                epoch: 2,
                batch: 17,
            },
            activations: Tensor::randn([2, 4, 8, 8], &mut rng_from_seed(0)),
            targets: vec![1, 9],
        }
    }

    #[test]
    fn activation_roundtrip() {
        let msg = sample_activation();
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.encoded_len());
        let back = ActivationMsg::decode(encoded).expect("clean frame decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn gradient_roundtrip() {
        let msg = GradientMsg {
            to: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            grad: Tensor::randn([3, 2], &mut rng_from_seed(1)),
        };
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.encoded_len());
        assert_eq!(
            GradientMsg::decode(encoded).expect("clean frame decodes"),
            msg
        );
    }

    /// The bitwise CRC32 the tables replaced: eight shift-xor steps per
    /// byte, the oracle for the table-driven one.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc32_matches_the_bitwise_loop() {
        let bytes: Vec<u8> = (0..(32 * 1024 + 8) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length across the word boundary cases.
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "len {len}"
            );
        }
        // 32 KiB frames at every alignment of the eight-byte words.
        for offset in 0..8 {
            let frame = &bytes[offset..offset + 32 * 1024];
            assert_eq!(crc32(frame), crc32_bitwise(frame), "offset {offset}");
        }
    }

    #[test]
    fn frame_header_layout() {
        let encoded = sample_activation().encode();
        let raw = encoded.as_ref();
        assert_eq!(&raw[0..4], b"STSL");
        assert_eq!(raw[4], WIRE_VERSION);
        assert_eq!(raw[5], KIND_ACTIVATION);
        let declared = u32::from_le_bytes([raw[6], raw[7], raw[8], raw[9]]) as usize;
        assert_eq!(declared, raw.len() - WIRE_HEADER_BYTES);
        let crc = u32::from_le_bytes([raw[10], raw[11], raw[12], raw[13]]);
        assert_eq!(crc, crc32(&raw[WIRE_HEADER_BYTES..]));
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let msg = sample_activation();
        for byte_idx in [
            WIRE_HEADER_BYTES,
            WIRE_HEADER_BYTES + 30,
            WIRE_HEADER_BYTES + 100,
        ] {
            let mut raw = msg.encode().as_ref().to_vec();
            raw[byte_idx] ^= 0x10;
            let err = ActivationMsg::decode(Bytes::from_vec(raw)).unwrap_err();
            assert!(
                matches!(err, DecodeError::ChecksumMismatch { .. }),
                "flip at {byte_idx} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let raw = sample_activation().encode().as_ref().to_vec();
        for keep in [
            0,
            3,
            WIRE_HEADER_BYTES - 1,
            WIRE_HEADER_BYTES + 5,
            raw.len() - 1,
        ] {
            let cut = raw[..keep].to_vec();
            assert!(
                ActivationMsg::decode(Bytes::from_vec(cut)).is_err(),
                "keep={keep}"
            );
        }
    }

    #[test]
    fn wrong_kind_and_bad_magic_rejected() {
        let msg = sample_activation();
        let encoded = msg.encode();
        // An activation frame fed to the gradient decoder:
        assert!(matches!(
            GradientMsg::decode(encoded.clone()),
            Err(DecodeError::WrongKind {
                expected: KIND_GRADIENT,
                got: KIND_ACTIVATION
            })
        ));
        let mut raw = encoded.as_ref().to_vec();
        raw[0] = b'X';
        assert!(matches!(
            ActivationMsg::decode(Bytes::from_vec(raw.clone())),
            Err(DecodeError::BadMagic { .. })
        ));
        raw[0] = b'S';
        raw[4] = 9;
        assert!(matches!(
            ActivationMsg::decode(Bytes::from_vec(raw)),
            Err(DecodeError::UnsupportedVersion { got: 9 })
        ));
    }

    #[test]
    fn decode_lenient_reports_crc_but_not_structure() {
        let msg = sample_activation();
        // Flip a data byte deep in the tensor payload: CRC decode rejects,
        // lenient decode lets the (numerically garbled) message through but
        // reports the dirty checksum.
        let mut raw = msg.encode().as_ref().to_vec();
        let idx = raw.len() - 20;
        raw[idx] ^= 0x40;
        assert!(ActivationMsg::decode(Bytes::from_vec(raw.clone())).is_err());
        let (garbled, crc_ok) =
            ActivationMsg::decode_lenient(Bytes::from_vec(raw)).expect("parseable");
        assert!(!crc_ok);
        assert_eq!(garbled.from, msg.from);
        assert_ne!(garbled, msg);
        // A clean frame reports a clean checksum.
        let (clean, crc_ok) = ActivationMsg::decode_lenient(msg.encode()).expect("clean");
        assert!(crc_ok);
        assert_eq!(clean, msg);
        // Truncation stays an error on both paths.
        let cut = msg.encode().as_ref()[..40].to_vec();
        assert!(ActivationMsg::decode_lenient(Bytes::from_vec(cut)).is_err());
    }

    #[test]
    fn encoded_len_scales_with_activation_volume() {
        let small = ActivationMsg {
            from: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            activations: Tensor::zeros([1, 16, 16, 16]),
            targets: vec![0],
        };
        let large = ActivationMsg {
            from: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            activations: Tensor::zeros([1, 16, 32, 32]),
            targets: vec![0],
        };
        assert!(large.encoded_len() > 3 * small.encoded_len());
    }

    #[test]
    fn batch_id_orders_lexicographically() {
        let a = BatchId { epoch: 0, batch: 9 };
        let b = BatchId { epoch: 1, batch: 0 };
        assert!(a < b);
        assert_eq!(a.to_string(), "e0b9");
    }
}

//! Wire-size accounting for published messages.
//!
//! The engine charges every published message its encoded size in *bits*
//! via [`WireSize::wire_bits`]. The method is **required**: every message
//! type states the size an actual encoding would need — heap payloads
//! (`Vec` contents) count, padding and never-sent scratch do not. (The
//! trait used to provide a `8 × size_of::<Self>()` shallow-size default;
//! an audit found no message type still relying on it — padding made it
//! over-charge and heap payloads made it under-charge, so rather than
//! keep a silently-wrong fallback the method is now required.) The exact
//! impls below cover the primitives and containers message types are
//! built from, so most impls are a sum of field sizes.
//!
//! These numbers feed the CONGEST audit: an algorithm's messages fit the
//! CONGEST model iff its per-round maximum stays within `O(log n)` bits
//! (see `Bound::CongestWidth` in the bench crate).
//!
//! [`WireCodec`] is the companion trait for transports that actually move
//! bytes (the actor backend's TCP framing, [`crate::transport`]): a
//! canonical little-endian encoding with the same composition rules as
//! [`WireSize`] (length-prefixed `Vec`s, presence-byte `Option`s,
//! field-concatenated tuples and arrays). The in-process channel transport
//! moves values directly and needs no codec, so `Protocol::Msg` only has
//! to implement `WireCodec` when a run actually crosses a socket.

/// Encoded size of a value on the wire, in bits.
///
/// Implement this for every [`Protocol::Msg`](crate::Protocol::Msg) type;
/// count what an encoder would actually emit. Composite messages usually
/// sum their fields' `wire_bits` (plus any tag bits an encoding needs).
pub trait WireSize {
    /// Number of bits an encoding of `self` occupies on the wire.
    fn wire_bits(&self) -> u64;
}

impl WireSize for () {
    fn wire_bits(&self) -> u64 {
        0
    }
}

impl WireSize for bool {
    fn wire_bits(&self) -> u64 {
        1
    }
}

macro_rules! exact_prim {
    ($($t:ty => $bits:expr),* $(,)?) => {
        $(impl WireSize for $t {
            fn wire_bits(&self) -> u64 {
                $bits
            }
        })*
    };
}

// usize/isize travel as 64-bit values: a wire format cannot depend on the
// simulating host's pointer width.
exact_prim! {
    u8 => 8, u16 => 16, u32 => 32, u64 => 64, usize => 64,
    i8 => 8, i16 => 16, i32 => 32, i64 => 64, isize => 64,
    f32 => 32, f64 => 64,
}

/// One presence bit, plus the payload when present.
impl<T: WireSize> WireSize for Option<T> {
    fn wire_bits(&self) -> u64 {
        match self {
            None => 1,
            Some(x) => 1 + x.wire_bits(),
        }
    }
}

/// A 32-bit length prefix plus the elements' encoded sizes.
impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bits(&self) -> u64 {
        32 + self.iter().map(WireSize::wire_bits).sum::<u64>()
    }
}

/// Fixed-length: no prefix, just the elements.
impl<T: WireSize, const N: usize> WireSize for [T; N] {
    fn wire_bits(&self) -> u64 {
        self.iter().map(WireSize::wire_bits).sum()
    }
}

macro_rules! exact_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: WireSize),+> WireSize for ($($name,)+) {
            fn wire_bits(&self) -> u64 {
                0 $(+ self.$idx.wire_bits())+
            }
        }
    };
}

exact_tuple!(A: 0, B: 1);
exact_tuple!(A: 0, B: 1, C: 2);
exact_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Canonical byte encoding for values that cross a real wire.
///
/// The actor backend's TCP transport serializes
/// [`Protocol::Msg`](crate::Protocol::Msg) values with this trait; the
/// encoding is little-endian, self-delimiting, and mirrors
/// [`WireSize`]'s composition rules (it is byte-padded, so `encode` may
/// emit up to 7 bits more than `wire_bits` charges — accounting stays
/// with `WireSize`, bytes on the socket come from here). `decode` consumes from the front of `buf` and
/// returns `None` on truncated or malformed input.
pub trait WireCodec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `buf`, advancing it past the
    /// consumed bytes. `None` means truncated or malformed input.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

/// Splits `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head)
}

impl WireCodec for () {
    fn encode(&self, _: &mut Vec<u8>) {}
    fn decode(_: &mut &[u8]) -> Option<()> {
        Some(())
    }
}

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(buf: &mut &[u8]) -> Option<bool> {
        match take(buf, 1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

macro_rules! codec_prim {
    ($($t:ty),* $(,)?) => {
        $(impl WireCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Option<$t> {
                let bytes = take(buf, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
        })*
    };
}

codec_prim!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// `usize`/`isize` travel as 64-bit values, matching [`WireSize`].
impl WireCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<usize> {
        usize::try_from(u64::decode(buf)?).ok()
    }
}

impl WireCodec for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<isize> {
        isize::try_from(i64::decode(buf)?).ok()
    }
}

/// One presence byte, plus the payload when present.
impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Option<T>> {
        match take(buf, 1)?[0] {
            0 => Some(None),
            1 => Some(Some(T::decode(buf)?)),
            _ => None,
        }
    }
}

/// A 32-bit length prefix plus the elements, matching [`WireSize`].
impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (u32::try_from(self.len()).expect("Vec longer than u32::MAX")).encode(out);
        for x in self {
            x.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Vec<T>> {
        let len = u32::decode(buf)? as usize;
        // Reserve only what the remaining bytes could fill in memory, so
        // a hostile length prefix cannot make a frame allocate several
        // times its own size before the decode fails.
        let fits = buf.len() / std::mem::size_of::<T>().max(1);
        let mut v = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            v.push(T::decode(buf)?);
        }
        Some(v)
    }
}

/// Fixed-length: no prefix, just the elements.
impl<T: WireCodec, const N: usize> WireCodec for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for x in self {
            x.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<[T; N]> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::decode(buf)?);
        }
        v.try_into().ok()
    }
}

macro_rules! codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: WireCodec),+> WireCodec for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                Some(($($name::decode(buf)?,)+))
            }
        }
    };
}

codec_tuple!(A: 0, B: 1);
codec_tuple!(A: 0, B: 1, C: 2);
codec_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_and_bool_are_exact() {
        assert_eq!(().wire_bits(), 0);
        assert_eq!(true.wire_bits(), 1);
        assert_eq!(false.wire_bits(), 1);
    }

    #[test]
    fn integers_count_their_width() {
        assert_eq!(0u8.wire_bits(), 8);
        assert_eq!(0u16.wire_bits(), 16);
        assert_eq!(0u32.wire_bits(), 32);
        assert_eq!(0u64.wire_bits(), 64);
        assert_eq!(0usize.wire_bits(), 64, "usize travels as 64 bits");
    }

    #[test]
    fn option_charges_presence_bit() {
        assert_eq!(None::<u32>.wire_bits(), 1);
        assert_eq!(Some(7u32).wire_bits(), 33);
    }

    #[test]
    fn vec_charges_prefix_and_heap_payload() {
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(v.wire_bits(), 32 + 3 * 64);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(empty.wire_bits(), 32);
        // Nested heap payloads count all the way down.
        let nested: Vec<Vec<u8>> = vec![vec![1, 2], vec![]];
        assert_eq!(nested.wire_bits(), 32 + (32 + 16) + 32);
    }

    #[test]
    fn tuples_and_arrays_sum_fields() {
        assert_eq!((1u8, 2u32).wire_bits(), 40);
        assert_eq!((true, 0u64, ()).wire_bits(), 65);
        assert_eq!([1u16; 4].wire_bits(), 64);
    }

    #[test]
    fn composite_impls_state_exact_sizes() {
        // `wire_bits` is required, so a composite message declares its
        // exact encoded size — field sum, no padding (the struct below
        // occupies 16 bytes in memory but only 96 bits on the wire).
        struct Composite {
            a: u64,
            b: u32,
        }
        impl WireSize for Composite {
            fn wire_bits(&self) -> u64 {
                self.a.wire_bits() + self.b.wire_bits()
            }
        }
        let m = Composite { a: 0, b: 0 };
        assert_eq!(m.wire_bits(), 96);
        assert!(m.wire_bits() < 8 * std::mem::size_of::<Composite>() as u64);
    }

    fn round_trip<T: WireCodec + PartialEq + std::fmt::Debug>(x: T) {
        let mut bytes = Vec::new();
        x.encode(&mut bytes);
        let mut buf = bytes.as_slice();
        assert_eq!(T::decode(&mut buf), Some(x));
        assert!(buf.is_empty(), "decode must consume the whole encoding");
    }

    #[test]
    fn codec_round_trips() {
        round_trip(());
        round_trip(true);
        round_trip(0x1234_5678_9abc_def0u64);
        round_trip(-7i32);
        round_trip(3.5f64);
        round_trip(usize::MAX);
        round_trip(Some(42u32));
        round_trip(None::<u32>);
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip([9u16; 4]);
        round_trip((1u8, 2u32));
        round_trip((true, 0u64, -1i8, vec![7u32]));
    }

    #[test]
    fn codec_rejects_truncated_input() {
        let mut bytes = Vec::new();
        0xdead_beefu64.encode(&mut bytes);
        bytes.pop();
        let mut buf = bytes.as_slice();
        assert_eq!(u64::decode(&mut buf), None);
        // A Vec whose length prefix promises more elements than follow.
        let mut bytes = Vec::new();
        7u32.encode(&mut bytes);
        let mut buf = bytes.as_slice();
        assert_eq!(Vec::<u64>::decode(&mut buf), None);
    }

    #[test]
    fn codec_rejects_malformed_tags() {
        let mut buf: &[u8] = &[2];
        assert_eq!(bool::decode(&mut buf), None);
        let mut buf: &[u8] = &[9, 1, 2, 3, 4];
        assert_eq!(Option::<u32>::decode(&mut buf), None);
    }
}

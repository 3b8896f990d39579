//! Compact binary serde format ("wire format").
//!
//! Non-self-describing, position-based encoding comparable to Thrift's
//! binary protocol or bincode:
//!
//! | Type | Encoding |
//! |---|---|
//! | `bool` | one byte, `0` or `1` |
//! | integers, floats | little-endian fixed width |
//! | `char` | `u32` scalar value |
//! | `str`, bytes | `u32` length + raw bytes |
//! | `Option<T>` | one tag byte, then `T` if `Some` |
//! | sequences, maps | `u32` length + elements |
//! | enums | `u32` variant index + payload |
//! | structs, tuples | fields in declaration order |
//!
//! Both directions are implemented directly against the serde data model,
//! so every message type in [`crate::messages`] (and any user type that
//! derives `Serialize`/`Deserialize`) travels over it.

use std::fmt;

use jiffy_common::JiffyError;
use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};

/// Serializes `value` into a fresh byte vector.
///
/// # Errors
///
/// Returns [`JiffyError::Codec`] if the value cannot be represented
/// (e.g. a sequence of unknown length).
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, JiffyError> {
    let mut ser = WireSerializer { out: Vec::new() };
    value.serialize(&mut ser)?;
    Ok(ser.out)
}

/// Serializes `value` into `out`, reusing its allocation.
///
/// The buffer is cleared first; after a successful call it holds exactly
/// the encoded value. A steady-state encode loop that keeps one scratch
/// buffer per thread therefore allocates nothing once the buffer has
/// grown to the working-set frame size.
///
/// # Errors
///
/// Returns [`JiffyError::Codec`] as [`to_bytes`] does; on error the
/// buffer contents are unspecified (but the allocation is still reusable).
pub fn to_bytes_into<T: Serialize>(value: &T, out: &mut Vec<u8>) -> Result<(), JiffyError> {
    out.clear();
    let mut ser = WireSerializer {
        out: std::mem::take(out),
    };
    let result = value.serialize(&mut ser);
    *out = ser.out;
    result.map_err(Into::into)
}

/// The number of bytes [`to_bytes`] would produce for `value`, computed
/// by the same serializer without building the bytes.
///
/// # Errors
///
/// Returns [`JiffyError::Codec`] exactly when [`to_bytes`] would.
pub fn encoded_len<T: Serialize + ?Sized>(value: &T) -> Result<usize, JiffyError> {
    let mut ser = WireSerializer { out: ByteCount(0) };
    value.serialize(&mut ser)?;
    Ok(ser.out.0)
}

/// Deserializes a value previously produced by [`to_bytes`].
///
/// # Errors
///
/// Returns [`JiffyError::Codec`] on truncated or malformed input, or if
/// trailing bytes remain after the value.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, JiffyError> {
    let mut de = WireDeserializer { input: bytes };
    let value = T::deserialize(&mut de)?;
    if !de.input.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after value",
            de.input.len()
        )));
    }
    Ok(value)
}

fn codec_err(msg: impl fmt::Display) -> JiffyError {
    JiffyError::Codec(msg.to_string())
}

/// Internal error adapter so serde traits can be implemented for
/// [`JiffyError`].
#[derive(Debug)]
pub struct WireError(pub JiffyError);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for WireError {}

impl ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError(codec_err(msg))
    }
}

impl de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError(codec_err(msg))
    }
}

impl From<WireError> for JiffyError {
    fn from(e: WireError) -> Self {
        e.0
    }
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

/// Where a [`WireSerializer`] puts its bytes: a buffer, or a counter
/// that only measures them ([`encoded_len`]).
trait WireOut {
    fn push(&mut self, byte: u8);
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl WireOut for Vec<u8> {
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// Counts the bytes it is given and keeps none of them.
struct ByteCount(usize);

impl WireOut for ByteCount {
    fn push(&mut self, _byte: u8) {
        self.0 += 1;
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

struct WireSerializer<O> {
    out: O,
}

impl<O: WireOut> WireSerializer<O> {
    fn put_len(&mut self, len: usize) -> Result<(), WireError> {
        let len: u32 = len
            .try_into()
            .map_err(|_| WireError(codec_err("length exceeds u32")))?;
        self.out.extend_from_slice(&len.to_le_bytes());
        Ok(())
    }
}

impl<'a, O: WireOut> ser::Serializer for &'a mut WireSerializer<O> {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Compound<'a, O>;
    type SerializeTuple = Compound<'a, O>;
    type SerializeTupleStruct = Compound<'a, O>;
    type SerializeTupleVariant = Compound<'a, O>;
    type SerializeMap = Compound<'a, O>;
    type SerializeStruct = Compound<'a, O>;
    type SerializeStructVariant = Compound<'a, O>;

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.out.push(v as u8);
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), WireError> {
        self.out.push(v as u8);
        Ok(())
    }

    fn serialize_i16(self, v: i16) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_i32(self, v: i32) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_i128(self, v: i128) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<(), WireError> {
        self.out.push(v);
        Ok(())
    }

    fn serialize_u16(self, v: u16) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_u32(self, v: u32) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_u128(self, v: u128) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.serialize_u32(v as u32)
    }

    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.serialize_bytes(v.as_bytes())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        self.put_len(v.len())?;
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), WireError> {
        self.out.push(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<(), WireError> {
        self.out.push(1);
        v.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Compound<'a, O>, WireError> {
        let len = len.ok_or_else(|| WireError(codec_err("sequence length must be known")))?;
        self.put_len(len)?;
        Ok(Compound { ser: self })
    }

    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a, O>, WireError> {
        Ok(Compound { ser: self })
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, O>, WireError> {
        Ok(Compound { ser: self })
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, O>, WireError> {
        self.serialize_u32(variant_index)?;
        Ok(Compound { ser: self })
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Compound<'a, O>, WireError> {
        let len = len.ok_or_else(|| WireError(codec_err("map length must be known")))?;
        self.put_len(len)?;
        Ok(Compound { ser: self })
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, O>, WireError> {
        Ok(Compound { ser: self })
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, O>, WireError> {
        self.serialize_u32(variant_index)?;
        Ok(Compound { ser: self })
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Compound<'a, O> {
    ser: &'a mut WireSerializer<O>,
}

impl<O: WireOut> ser::SerializeSeq for Compound<'_, O> {
    type Ok = ();
    type Error = WireError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<O: WireOut> ser::SerializeTuple for Compound<'_, O> {
    type Ok = ();
    type Error = WireError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<O: WireOut> ser::SerializeTupleStruct for Compound<'_, O> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<O: WireOut> ser::SerializeTupleVariant for Compound<'_, O> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<O: WireOut> ser::SerializeMap for Compound<'_, O> {
    type Ok = ();
    type Error = WireError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
        key.serialize(&mut *self.ser)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<O: WireOut> ser::SerializeStruct for Compound<'_, O> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<O: WireOut> ser::SerializeStructVariant for Compound<'_, O> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Deserializer
// ---------------------------------------------------------------------------

struct WireDeserializer<'de> {
    input: &'de [u8],
}

impl<'de> WireDeserializer<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError(codec_err(format!(
                "truncated input: need {n} bytes, have {}",
                self.input.len()
            ))));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        // Length is guaranteed by `take`.
        Ok(s.try_into().unwrap())
    }

    fn get_len(&mut self) -> Result<usize, WireError> {
        let len = u32::from_le_bytes(self.take_array()?) as usize;
        // Guard against adversarial lengths pre-allocating huge buffers:
        // the payload must actually be present in the remaining input for
        // byte-like values; structured values are decoded element-wise so
        // a bad length fails fast on the first missing element.
        Ok(len)
    }
}

macro_rules! de_scalar {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            let v = <$ty>::from_le_bytes(self.take_array()?);
            visitor.$visit(v)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut WireDeserializer<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError(codec_err(
            "wire format is not self-describing; deserialize_any unsupported",
        )))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(WireError(codec_err(format!("invalid bool byte {b}")))),
        }
    }

    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i8(self.take(1)?[0] as i8)
    }

    de_scalar!(deserialize_i16, visit_i16, i16);
    de_scalar!(deserialize_i32, visit_i32, i32);
    de_scalar!(deserialize_i64, visit_i64, i64);
    de_scalar!(deserialize_i128, visit_i128, i128);

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u8(self.take(1)?[0])
    }

    de_scalar!(deserialize_u16, visit_u16, u16);
    de_scalar!(deserialize_u32, visit_u32, u32);
    de_scalar!(deserialize_u64, visit_u64, u64);
    de_scalar!(deserialize_u128, visit_u128, u128);
    de_scalar!(deserialize_f32, visit_f32, f32);
    de_scalar!(deserialize_f64, visit_f64, f64);

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let v = u32::from_le_bytes(self.take_array()?);
        let c = char::from_u32(v)
            .ok_or_else(|| WireError(codec_err(format!("invalid char scalar {v}"))))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|e| WireError(codec_err(e)))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(WireError(codec_err(format!("invalid option tag {b}")))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_seq(SeqAccess {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(SeqAccess {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_map(MapAccess {
            de: self,
            left: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError(codec_err(
            "identifiers are not encoded in the wire format",
        )))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError(codec_err(
            "cannot skip values in a non-self-describing format",
        )))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct SeqAccess<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
    left: usize,
}

impl<'de> de::SeqAccess<'de> for SeqAccess<'_, 'de> {
    type Error = WireError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct MapAccess<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
    left: usize,
}

impl<'de> de::MapAccess<'de> for MapAccess<'_, 'de> {
    type Error = WireError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = WireError;
    type Variant = VariantAccess<'a, 'de>;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), WireError> {
        let idx = u32::from_le_bytes(self.de.take_array()?);
        let value = seed.deserialize(idx.into_deserializer())?;
        Ok((value, VariantAccess { de: self.de }))
    }
}

struct VariantAccess<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
}

impl<'de> de::VariantAccess<'de> for VariantAccess<'_, 'de> {
    type Error = WireError;

    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, WireError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_seq(SeqAccess {
            de: self.de,
            left: len,
        })
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(SeqAccess {
            de: self.de,
            left: fields.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::collections::BTreeMap;

    fn round_trip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).unwrap();
        assert_eq!(
            encoded_len(&v).unwrap(),
            bytes.len(),
            "encoded_len of {v:?}"
        );
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(true);
        round_trip(false);
        round_trip(42u8);
        round_trip(-7i8);
        round_trip(0xBEEFu16);
        round_trip(-123456i32);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(i128::MIN);
        round_trip(3.25f32);
        round_trip(-2.5e300f64);
        round_trip('λ');
    }

    #[test]
    fn strings_and_collections_round_trip() {
        round_trip(String::from("hello jiffy"));
        round_trip(String::new());
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip(Some(7u8));
        round_trip(Option::<u8>::None);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2);
        round_trip(m);
    }

    #[derive(Debug, PartialEq, serde::Serialize, Deserialize)]
    enum Sample {
        Unit,
        New(u32),
        Tuple(u8, String),
        Struct { a: bool, b: Vec<u8> },
    }

    #[derive(Debug, PartialEq, serde::Serialize, Deserialize)]
    struct Nested {
        name: String,
        items: Vec<Sample>,
        opt: Option<Box<Nested>>,
    }

    #[test]
    fn enums_round_trip() {
        round_trip(Sample::Unit);
        round_trip(Sample::New(9));
        round_trip(Sample::Tuple(1, "x".into()));
        round_trip(Sample::Struct {
            a: true,
            b: vec![1, 2, 3],
        });
    }

    #[test]
    fn nested_structs_round_trip() {
        round_trip(Nested {
            name: "root".into(),
            items: vec![Sample::Unit, Sample::New(1)],
            opt: Some(Box::new(Nested {
                name: "leaf".into(),
                items: vec![],
                opt: None,
            })),
        });
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = to_bytes(&12345u64).unwrap();
        for cut in 0..bytes.len() {
            assert!(from_bytes::<u64>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(0);
        assert!(from_bytes::<u8>(&bytes).is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags_fail() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[7, 0]).is_err());
    }

    #[test]
    fn invalid_utf8_fails() {
        // Length 2, bytes 0xFF 0xFE: not UTF-8.
        let bytes = [2, 0, 0, 0, 0xFF, 0xFE];
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn unknown_variant_index_fails() {
        let bytes = 99u32.to_le_bytes();
        assert!(from_bytes::<Sample>(&bytes).is_err());
    }

    #[test]
    fn encoding_is_compact() {
        // A u64 is exactly 8 bytes, a 3-byte string is 4 + 3.
        assert_eq!(to_bytes(&1u64).unwrap().len(), 8);
        assert_eq!(to_bytes(&"abc").unwrap().len(), 7);
        // Unit enum variant is just the 4-byte index.
        assert_eq!(to_bytes(&Sample::Unit).unwrap().len(), 4);
    }
}

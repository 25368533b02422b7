//! The message table layer: a wire message is declared once.
//!
//! [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) take one listing of a message —
//! its fields in wire order, and for an enum each variant's tag — and
//! generate `encode`, `decode`, the unknown-tag error and (for enums)
//! `TAGS`, the tag → variant-name rows the spec's tables and the test
//! vectors are checked against. Nothing else states a tag or a field
//! order, so the two directions cannot drift apart.
//!
//! A field listed bare crosses the wire through its type's own
//! [`Wire`] impl; `name: Codec` sends it through a [`FieldCodec`],
//! which exists for the two cases `Wire` cannot cover: a type from a
//! crate that does not depend on this one (the orphan rule forbids
//! `impl Wire` for it downstream — `Ty as Codec` generates the codec),
//! and a field whose encoding differs from its type's default (a tile's
//! pixel runs, a batch item that refuses nesting).

use crate::{CodecError, Reader, Wire, Writer};
use std::marker::PhantomData;

/// How one field crosses the wire. Implementors are markers, never values.
pub trait FieldCodec<T> {
    /// Appends the encoding of `v`.
    fn put(w: &mut Writer, v: &T);
    /// Decodes one value, consuming exactly its bytes.
    fn get(r: &mut Reader<'_>) -> Result<T, CodecError>;
}

/// The field type's own [`Wire`] impl — what a bare field uses.
pub struct Own;

impl<T: Wire> FieldCodec<T> for Own {
    fn put(w: &mut Writer, v: &T) {
        v.encode(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<T, CodecError> {
        T::decode(r)
    }
}

/// A presence byte (0/1), then the payload through `C`.
pub struct Opt<C>(PhantomData<C>);

impl<T, C: FieldCodec<T>> FieldCodec<Option<T>> for Opt<C> {
    fn put(w: &mut Writer, v: &Option<T>) {
        match v {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                C::put(w, v);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<T>, CodecError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(C::get(r)?)),
            tag => Err(CodecError::InvalidTag {
                context: "Option",
                tag: tag as u64,
            }),
        }
    }
}

/// A varint count, then each element through `C`.
pub struct Seq<C>(PhantomData<C>);

impl<T, C: FieldCodec<T>> FieldCodec<Vec<T>> for Seq<C> {
    fn put(w: &mut Writer, v: &Vec<T>) {
        w.put_varint(v.len() as u64);
        for item in v {
            C::put(w, item);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
        let n = r.read_length()?;
        // An element takes a byte or more: a corrupt count reserves no more.
        let mut v = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            v.push(C::get(r)?);
        }
        Ok(v)
    }
}

/// The first element through `A`, then the second through `B`.
pub struct Pair<A, B>(PhantomData<(A, B)>);

impl<T, U, A: FieldCodec<T>, B: FieldCodec<U>> FieldCodec<(T, U)> for Pair<A, B> {
    fn put(w: &mut Writer, v: &(T, U)) {
        A::put(w, &v.0);
        B::put(w, &v.1);
    }
    fn get(r: &mut Reader<'_>) -> Result<(T, U), CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Declares a struct's wire form: its fields, in wire order. A field
/// is `name` (its own [`Wire`] impl) or `name: Codec`; a tuple
/// struct's fields are `0`, `1`, …. `Ty as Codec` declares the field
/// codec `Codec` for a foreign `Ty` instead of `impl Wire for Ty`.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident $(as $codec:ident)? { $($f:tt $(: $c:ty)?),* $(,)? }) => {
        $crate::__wire_impl! { $ty $(as $codec)? {}
            put(w, v) {
                $( <$crate::__codec!($($c)?) as $crate::FieldCodec<_>>::put(w, &v.$f); )*
            }
            get(r) {
                Ok($ty { $( $f: <$crate::__codec!($($c)?) as $crate::FieldCodec<_>>::get(r)? ),* })
            }
        }
    };
}

/// Declares an enum's wire form: one `tag => Variant` row per variant,
/// fields listed as in [`wire_struct!`] (`Variant`, `Variant { a, b: Codec }`
/// or `Variant(a, b: Codec)`). The tag is the first byte; an unlisted
/// one decodes to [`CodecError::InvalidTag`](crate::CodecError::InvalidTag)
/// under `$ctx`. Also generates `TAGS`, the rows as `(tag, variant name)`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident $(as $codec:ident)?, $ctx:literal { $(
        $tag:literal => $var:ident
            $({ $($f:ident $(: $fc:ty)?),* $(,)? })?
            $(( $($t:ident $(: $tc:ty)?),* $(,)? ))?
    ),* $(,)? }) => {
        $crate::__wire_impl! { $ty $(as $codec)? {
                /// The table's rows: `(tag, variant name)`.
                pub const TAGS: &'static [(u8, &'static str)] =
                    &[$(($tag, stringify!($var))),*];
            }
            put(w, v) {
                match v { $(
                    $ty::$var $({ $($f),* })? $(( $($t),* ))? => {
                        w.put_u8($tag);
                        $($( <$crate::__codec!($($fc)?) as $crate::FieldCodec<_>>::put(w, $f); )*)?
                        $($( <$crate::__codec!($($tc)?) as $crate::FieldCodec<_>>::put(w, $t); )*)?
                    }
                )* }
            }
            get(r) {
                match r.read_u8()? {
                    $( $tag => {
                        $($( let $f = <$crate::__codec!($($fc)?) as $crate::FieldCodec<_>>::get(r)?; )*)?
                        $($( let $t = <$crate::__codec!($($tc)?) as $crate::FieldCodec<_>>::get(r)?; )*)?
                        Ok($ty::$var $({ $($f),* })? $(( $($t),* ))?)
                    } )*
                    tag => Err($crate::CodecError::InvalidTag {
                        context: $ctx,
                        tag: tag as u64,
                    }),
                }
            }
        }
    };
}

/// The codec of a table field: the one named, else [`Own`].
#[doc(hidden)]
#[macro_export]
macro_rules! __codec {
    () => {
        $crate::Own
    };
    ($c:ty) => {
        $c
    };
}

/// `impl Wire for Ty`, or a marker with `impl FieldCodec<Ty>`.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_impl {
    ($ty:ident { $($consts:tt)* }
     put($w:ident, $v:ident) { $($put:tt)* } get($r:ident) { $($get:tt)* }) => {
        impl $ty { $($consts)* }
        impl $crate::Wire for $ty {
            fn encode(&self, $w: &mut $crate::Writer) {
                let $v = self;
                $($put)*
            }
            fn decode($r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CodecError> {
                $($get)*
            }
        }
    };
    ($ty:ident as $codec:ident { $($consts:tt)* }
     put($w:ident, $v:ident) { $($put:tt)* } get($r:ident) { $($get:tt)* }) => {
        #[doc = concat!("Field codec of [`", stringify!($ty), "`], generated from its table.")]
        pub struct $codec;
        impl $codec { $($consts)* }
        impl $crate::FieldCodec<$ty> for $codec {
            fn put($w: &mut $crate::Writer, $v: &$ty) {
                $($put)*
            }
            fn get($r: &mut $crate::Reader<'_>) -> Result<$ty, $crate::CodecError> {
                $($get)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[derive(Debug, Clone, PartialEq)]
    struct Id(u64);
    /// Stands in for a type of a crate that cannot `impl Wire`.
    #[derive(Debug, Clone, PartialEq)]
    struct Foreign {
        x: f64,
        y: f64,
    }
    #[derive(Debug, Clone, PartialEq)]
    struct Hit {
        id: Id,
        at: Foreign,
        via: Option<Foreign>,
        path: Vec<Foreign>,
        k: u32,
    }
    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Hit { hit: Hit, raw: Vec<u8> },
        Pair(u8, String),
        Many(Vec<Msg>),
    }

    wire_struct! { Id { 0 } }
    wire_struct! { Foreign as ForeignCodec { x, y } }
    wire_struct! { Hit { id, at: ForeignCodec, via: Opt<ForeignCodec>, path: Seq<ForeignCodec>, k } }
    wire_enum! { Msg, "Msg" {
        0 => Ping,
        1 => Hit { hit, raw },
        // Tags need not follow declaration order.
        7 => Pair(a, b),
        3 => Many(items),
    } }

    fn hit() -> Hit {
        Hit {
            id: Id(300),
            at: Foreign { x: 1.0, y: -2.0 },
            via: None,
            path: vec![Foreign { x: 0.5, y: 0.25 }],
            k: 9,
        }
    }

    #[test]
    fn a_table_row_is_its_fields_in_listed_order() {
        let mut w = Writer::new();
        w.put_varint(300);
        w.put_f64(1.0);
        w.put_f64(-2.0);
        w.put_u8(0);
        w.put_varint(1);
        w.put_f64(0.5);
        w.put_f64(0.25);
        w.put_varint(9);
        assert_eq!(to_bytes(&hit()), w.finish());
    }

    #[test]
    fn every_variant_shape_round_trips_behind_its_tag() {
        let cases = [
            (0, Msg::Ping),
            (
                1,
                Msg::Hit {
                    hit: hit(),
                    raw: vec![1, 2, 3],
                },
            ),
            (7, Msg::Pair(4, "x".into())),
            (3, Msg::Many(vec![Msg::Ping, Msg::Pair(0, String::new())])),
        ];
        for (tag, msg) in cases {
            let bytes = to_bytes(&msg);
            assert_eq!(bytes[0], tag);
            assert_eq!(from_bytes::<Msg>(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn tags_lists_the_rows_and_an_unlisted_tag_is_refused_by_name() {
        assert_eq!(
            Msg::TAGS,
            [(0, "Ping"), (1, "Hit"), (7, "Pair"), (3, "Many")]
        );
        assert_eq!(
            from_bytes::<Msg>(&[2]),
            Err(CodecError::InvalidTag {
                context: "Msg",
                tag: 2
            })
        );
    }

    #[test]
    fn a_field_narrower_than_its_varint_is_refused() {
        let mut bytes = to_bytes(&hit()).to_vec();
        bytes.pop();
        let mut w = Writer::new();
        w.put_varint(1 << 32);
        bytes.extend_from_slice(&w.finish());
        assert!(matches!(
            from_bytes::<Hit>(&bytes),
            Err(CodecError::InvalidTag { context: "u32", .. })
        ));
    }

    #[test]
    fn a_pair_is_its_two_fields_in_order_and_a_tuple_is_a_pair() {
        let v = (300u64, Foreign { x: 1.0, y: -2.0 });
        let mut w = Writer::new();
        Pair::<Own, ForeignCodec>::put(&mut w, &v);
        let bytes = w.finish();
        let mut expected = Writer::new();
        expected.put_varint(300);
        expected.put_f64(1.0);
        expected.put_f64(-2.0);
        assert_eq!(bytes, expected.finish());
        let mut r = Reader::new(&bytes);
        assert_eq!(Pair::<Own, ForeignCodec>::get(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0);
        let tuple = (7u64, "x".to_string());
        let mut w = Writer::new();
        Pair::<Own, Own>::put(&mut w, &tuple);
        assert_eq!(to_bytes(&tuple), w.finish());
    }

    #[test]
    fn a_corrupt_count_fails_at_the_end_of_the_input() {
        let mut w = Writer::new();
        w.put_varint(1 << 20);
        w.put_f64(0.0);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(Seq::<ForeignCodec>::get(&mut r).is_err());
    }
}

//! A tile's wire form: canonical pixel runs (spec §8).
//!
//! A tile travels as runs `(length: varint ≥ 1, red, green, blue)`,
//! row-major, that cover exactly [`TILE_SIZE`]² pixels, each run of
//! another colour than the run before it. [`PixelRuns`] holds such runs,
//! validated, in one shared buffer: [`Tile::to_runs`](crate::Tile::to_runs)
//! is the one encoder, [`PixelRuns::read`] the one decoder, and a tile
//! has exactly one encoding. A federated layer is mostly background, so
//! its runs are a few kilobytes where its RGB bytes are 192 KB; the worst
//! case, a colour change at every pixel, is four bytes a pixel.
//!
//! Since a tile has one encoding, a hash of its runs names its pixels:
//! [`PixelRuns::tag`], what a `RevalidateTile` asks about (spec §8). It
//! is computed when first asked for and kept with the runs.

use crate::tile::TILE_SIZE;
use openflame_codec::Fnv1a;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Pixels in a tile.
const PIXELS: usize = TILE_SIZE * TILE_SIZE;

/// The most bytes a tile's runs can take: four a pixel, when every
/// pixel starts a run of length 1 (spec §8).
const MAX_RUN_BYTES: usize = 4 * PIXELS;

/// Why bytes are not a tile's canonical runs (spec §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunsError {
    /// The input ended inside a run, or before the runs covered the
    /// tile: `covered` pixels.
    Short {
        /// Pixels the complete runs covered.
        covered: usize,
    },
    /// A run of length 0.
    EmptyRun,
    /// A run reaching past the tile's last pixel.
    PastLastPixel {
        /// The run's length (a lower bound when it needs more than
        /// three varint bytes).
        length: u64,
    },
    /// A run length written with a redundant varint byte.
    OverlongLength {
        /// The run's length.
        length: u64,
    },
    /// A run of the colour of the run before it.
    RepeatedColour {
        /// The colour, `0xRRGGBB`.
        rgb: u32,
    },
}

/// A tile's canonical runs, validated, in one buffer that clones share
/// with the runs' tag.
///
/// Dereferences to the tile's row-major RGB bytes (three a pixel, as a
/// PPM body), painted on the first dereference of this value and kept
/// with it; encoding, decoding, comparing and printing never paint.
/// [`PixelRuns::as_bytes`] is the wire form.
pub struct PixelRuns {
    shared: Arc<Shared>,
    rgb: OnceLock<Box<[u8]>>,
}

/// What the clones of one [`PixelRuns`] share: the runs, and their tag
/// once any clone has asked for it.
struct Shared {
    runs: Box<[u8]>,
    tag: OnceLock<u64>,
}

impl PixelRuns {
    /// Run-length encodes row-major ARGB pixels, alpha dropped, in one
    /// pass.
    pub(crate) fn encode(pixels: &[u32]) -> Self {
        debug_assert_eq!(pixels.len(), PIXELS);
        let mut out = Vec::new();
        let mut put = |length: usize, rgb: u32| {
            let mut v = length;
            while v >= 0x80 {
                out.push(v as u8 | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
            out.extend_from_slice(&rgb.to_be_bytes()[1..]);
        };
        let mut colours = pixels.iter().map(|px| px & 0x00FF_FFFF);
        let mut current = colours.next().unwrap_or_default();
        let mut length = 1;
        for rgb in colours {
            if rgb == current {
                length += 1;
            } else {
                put(length, current);
                (current, length) = (rgb, 1);
            }
        }
        put(length, current);
        debug_assert!(out.len() <= MAX_RUN_BYTES);
        Self::new(out.into())
    }

    fn new(runs: Box<[u8]>) -> Self {
        Self::sharing(Arc::new(Shared {
            runs,
            tag: OnceLock::new(),
        }))
    }

    fn sharing(shared: Arc<Shared>) -> Self {
        Self {
            shared,
            rgb: OnceLock::new(),
        }
    }

    /// Validates the runs at the front of `bytes`: they end where they
    /// cover the tile. Returns them, copied into a buffer of their own,
    /// and the number of bytes they took.
    ///
    /// # Errors
    ///
    /// Every form spec §8 refuses: a run of length 0, a run past the last
    /// pixel, a redundant length byte, two adjacent runs of one colour,
    /// and input that ends before the tile is covered.
    pub fn read(bytes: &[u8]) -> Result<(Self, usize), RunsError> {
        let (mut at, mut covered, mut previous) = (0, 0, None);
        while covered < PIXELS {
            let short = RunsError::Short { covered };
            let (length, used) = run_length(&bytes[at..]).ok_or(short)??;
            if length == 0 {
                return Err(RunsError::EmptyRun);
            }
            if length > (PIXELS - covered) as u64 {
                return Err(RunsError::PastLastPixel { length });
            }
            let rgb = bytes.get(at + used..at + used + 3).ok_or(short)?;
            let rgb = u32::from_be_bytes([0, rgb[0], rgb[1], rgb[2]]);
            if previous == Some(rgb) {
                return Err(RunsError::RepeatedColour { rgb });
            }
            previous = Some(rgb);
            covered += length as usize;
            at += used + 3;
        }
        Ok((Self::new(bytes[..at].into()), at))
    }

    /// The wire form: the runs' bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.shared.runs
    }

    /// The tile's tag (spec §8): FNV-1a-64 over its runs. Hashed on the
    /// first call on any clone, then kept with the runs for them all.
    pub fn tag(&self) -> u64 {
        *self
            .shared
            .tag
            .get_or_init(|| Fnv1a::new().write(self.as_bytes()).finish())
    }

    /// Whether `a` and `b` share one buffer of runs, as
    /// [`Arc::ptr_eq`].
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.shared, &b.shared)
    }

    /// Each run's length and colour (`0xRRGGBB`), in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let mut rest = self.as_bytes();
        std::iter::from_fn(move || {
            let (length, used) = run_length(rest)?.ok()?;
            let rgb = u32::from_be_bytes([0, rest[used], rest[used + 1], rest[used + 2]]);
            rest = &rest[used + 3..];
            Some((length as usize, rgb))
        })
    }
}

/// The run length at the front of `bytes` and its byte count: `None`
/// when the bytes end inside it. A length needs at most three bytes;
/// one that needs more is past the last pixel.
fn run_length(bytes: &[u8]) -> Option<Result<(u64, usize), RunsError>> {
    let mut length = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        length |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            return Some(if i > 0 && byte == 0 {
                Err(RunsError::OverlongLength { length })
            } else {
                Ok((length, i + 1))
            });
        }
        if i == 2 {
            return Some(Err(RunsError::PastLastPixel { length }));
        }
    }
    None
}

impl Deref for PixelRuns {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.rgb.get_or_init(|| {
            let mut rgb = Vec::with_capacity(PIXELS * 3);
            for (length, colour) in self.iter() {
                let bytes = &colour.to_be_bytes()[1..];
                for _ in 0..length {
                    rgb.extend_from_slice(bytes);
                }
            }
            rgb.into()
        })
    }
}

impl Clone for PixelRuns {
    /// Shares the runs and their tag; the RGB bytes are painted again on
    /// demand.
    fn clone(&self) -> Self {
        Self::sharing(self.shared.clone())
    }
}

impl PartialEq for PixelRuns {
    /// Equal runs are equal tiles: a tile has one encoding.
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl std::fmt::Debug for PixelRuns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PixelRuns({} bytes)", self.as_bytes().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{Tile, TileCoord, BACKGROUND};

    const COORD: TileCoord = TileCoord { z: 3, x: 1, y: 2 };

    /// Runs written out by hand: `(length, 0xRRGGBB)`, varints and all,
    /// with no check.
    fn spelled(runs: &[(u64, u32)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(mut length, rgb) in runs {
            while length >= 0x80 {
                out.push(length as u8 | 0x80);
                length >>= 7;
            }
            out.push(length as u8);
            out.extend_from_slice(&rgb.to_be_bytes()[1..]);
        }
        out
    }

    fn read(bytes: &[u8]) -> Result<(PixelRuns, usize), RunsError> {
        PixelRuns::read(bytes)
    }

    #[test]
    fn a_blank_tile_is_one_run() {
        let runs = Tile::blank(COORD).to_runs();
        assert_eq!(runs.as_bytes(), [0x80, 0x80, 0x04, 0xF2, 0xEF, 0xE9]);
        assert_eq!(runs.len(), PIXELS * 3);
        assert!(runs.chunks(3).all(|px| px == [0xF2, 0xEF, 0xE9]));
    }

    #[test]
    fn runs_are_read_from_the_front_and_end_where_the_tile_is_covered() {
        let mut bytes = spelled(&[(256, 0), (PIXELS as u64 - 256, BACKGROUND)]);
        let len = bytes.len();
        bytes.extend_from_slice(&[9, 9]);
        let (runs, used) = read(&bytes).unwrap();
        assert_eq!((used, runs.as_bytes()), (len, &bytes[..len]));
        let tile = Tile::from_runs(COORD, &runs);
        assert_eq!(tile.get(255, 0), 0xFF00_0000);
        assert_eq!(tile.get(0, 1), BACKGROUND);
        assert!(tile.to_runs() == runs);
    }

    #[test]
    fn a_zero_run_is_refused() {
        let bytes = spelled(&[(0, 0), (PIXELS as u64, BACKGROUND)]);
        assert_eq!(read(&bytes).unwrap_err(), RunsError::EmptyRun);
    }

    #[test]
    fn a_run_past_the_last_pixel_is_refused() {
        let past = |runs: &[(u64, u32)]| read(&spelled(runs)).unwrap_err();
        let length = PIXELS as u64 + 1;
        assert_eq!(past(&[(length, 0)]), RunsError::PastLastPixel { length });
        assert_eq!(
            past(&[(1, 0), (PIXELS as u64, BACKGROUND)]),
            RunsError::PastLastPixel {
                length: PIXELS as u64
            }
        );
        // Four varint bytes are past the last pixel whatever they say.
        assert!(matches!(
            past(&[(1 << 21, 0)]),
            RunsError::PastLastPixel { .. }
        ));
    }

    #[test]
    fn a_short_total_is_refused() {
        let bytes = spelled(&[(PIXELS as u64 - 1, 0)]);
        assert_eq!(
            read(&bytes).unwrap_err(),
            RunsError::Short {
                covered: PIXELS - 1
            }
        );
        assert_eq!(read(&[]).unwrap_err(), RunsError::Short { covered: 0 });
    }

    #[test]
    fn a_truncated_run_is_refused() {
        let bytes = spelled(&[(7, 0), (PIXELS as u64 - 7, BACKGROUND)]);
        for cut in [1, 5, bytes.len() - 1] {
            assert!(
                matches!(read(&bytes[..cut]), Err(RunsError::Short { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn adjacent_runs_of_one_colour_are_refused() {
        let bytes = spelled(&[(7, 0x12_3456), (PIXELS as u64 - 7, 0x12_3456)]);
        assert_eq!(
            read(&bytes).unwrap_err(),
            RunsError::RepeatedColour { rgb: 0x12_3456 }
        );
    }

    #[test]
    fn a_length_with_a_redundant_byte_is_refused() {
        let mut bytes = vec![0x81, 0x00, 0, 0, 0];
        bytes.extend(spelled(&[(PIXELS as u64 - 1, BACKGROUND)]));
        assert_eq!(
            read(&bytes).unwrap_err(),
            RunsError::OverlongLength { length: 1 }
        );
    }

    #[test]
    fn a_per_pixel_checkerboard_stays_within_the_bound() {
        // A checkerboard, whose row ends repeat a colour, and columns,
        // which change colour at every pixel of the row-major order.
        // Pixel (x, y) is black when x + row_step · y is even.
        for (row_step, bytes) in [(1, (PIXELS - (TILE_SIZE - 1)) * 4), (0, MAX_RUN_BYTES)] {
            let mut tile = Tile::blank(COORD);
            for y in 0..TILE_SIZE as i64 {
                for x in (0..TILE_SIZE as i64).filter(|x| (x + row_step * y) % 2 == 0) {
                    tile.set(x, y, 0xFF00_0000);
                }
            }
            let runs = tile.to_runs();
            assert_eq!(runs.as_bytes().len(), bytes);
            assert!(bytes <= MAX_RUN_BYTES);
            let (back, used) = read(runs.as_bytes()).unwrap();
            assert_eq!(used, bytes);
            assert_eq!(Tile::from_runs(COORD, &back), tile);
        }
    }

    #[test]
    fn clones_share_the_runs_and_paint_on_their_own() {
        let runs = Tile::blank(COORD).to_runs();
        let _ = runs.len();
        let clone = runs.clone();
        assert!(PixelRuns::ptr_eq(&runs, &clone));
        assert!(clone.rgb.get().is_none());
        assert!(runs == clone);
        assert_eq!(format!("{clone:?}"), "PixelRuns(6 bytes)");
        assert!(clone.rgb.get().is_none());
    }

    #[test]
    fn the_tag_is_hashed_once_on_demand_and_shared_by_clones() {
        let blank = Tile::blank(COORD).to_runs();
        let (read_back, _) = read(blank.as_bytes()).unwrap();
        let clone = read_back.clone();
        // Decoding and cloning hash nothing.
        assert!(read_back.shared.tag.get().is_none());
        let tag = clone.tag();
        assert_eq!(tag, Fnv1a::new().write(blank.as_bytes()).finish());
        assert_eq!(read_back.shared.tag.get(), Some(&tag));
        // Equal pixels, equal tags (the spec's Appendix B vector);
        // other pixels, another tag.
        assert_eq!(blank.tag(), tag);
        assert_eq!(tag, 0xdfec_248a_6b58_3e2f);
        let mut dotted = Tile::blank(COORD);
        dotted.set(0, 0, 0xFF00_0000);
        assert_ne!(dotted.to_runs().tag(), tag);
    }
}

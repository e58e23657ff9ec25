//! Event colors.
//!
//! Colors are the concurrency-control annotation of the event-coloring
//! model (paper Section II-A): two events with *different* colors may be
//! handled concurrently, while events of the *same* color are handled
//! serially, which the runtime guarantees by keeping all events of one
//! color on a single core at any time. Events without an annotation all
//! map to the default color and are therefore fully serialized.

use std::fmt;

/// Number of distinct colors. The paper represents colors as a "short
/// integer" and sizes the color-map accordingly (Section IV-A).
pub const COLOR_SPACE: usize = 1 << 16;

/// An event color: a 16-bit concurrency-control annotation.
///
/// # Examples
///
/// ```
/// use mely_core::color::Color;
///
/// let per_connection = Color::new(1042);
/// assert_eq!(per_connection.value(), 1042);
/// assert!(!per_connection.is_default());
/// assert!(Color::DEFAULT.is_default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Color(u16);

impl Color {
    /// The color of unannotated events. All such events are mutually
    /// exclusive with each other (paper Section II-A).
    pub const DEFAULT: Color = Color(0);

    /// Creates a color from its 16-bit value.
    pub const fn new(value: u16) -> Self {
        Color(value)
    }

    /// The raw 16-bit value.
    pub const fn value(self) -> u16 {
        self.0
    }

    /// Whether this is the default (serializing) color.
    pub const fn is_default(self) -> bool {
        self.0 == 0
    }

    /// The initial core a color is dispatched to on an `n`-core machine:
    /// the "simple hashing function on colors" of Section II-A.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub const fn home_core(self, n: usize) -> usize {
        assert!(n > 0, "machine must have at least one core");
        self.0 as usize % n
    }
}

impl From<u16> for Color {
    fn from(v: u16) -> Self {
        Color(v)
    }
}

/// An inclusive range of colors — the unit of the color-space
/// partition.
///
/// The stage layer uses the lower half of the non-default colors,
/// split into two *planes*: [`ColorRange::STAGE_SERIAL`] (counter
/// territory — [`ColorSpace::alloc`] hands serial stage colors out of
/// it) and [`ColorRange::STAGE_KEYED`] (hash territory —
/// `StageSpec::keyed` colors land there; keys hash into it with
/// [`ColorRange::keyed`], and a hash collision merely serializes the
/// two entities, which is always safe). The split makes
/// serial-vs-keyed collisions impossible by construction.
///
/// # Examples
///
/// ```
/// use mely_core::color::ColorRange;
///
/// let c = ColorRange::STAGE_KEYED.keyed(12_345);
/// assert!(ColorRange::STAGE_KEYED.contains(c));
/// assert!(!c.is_default());
/// assert!(!ColorRange::STAGE_SERIAL.contains(c));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColorRange {
    first: u16,
    last: u16,
}

impl ColorRange {
    /// The *serial plane*: the range
    /// [`ColorSpace::alloc`] hands serial stage colors out of.
    /// Disjoint from [`ColorRange::STAGE_KEYED`], so an
    /// allocated stage color can never collide with a hashed
    /// per-message color — without this split, connection 0's keyed
    /// color would equal the first allocated serial color on every
    /// run, silently serializing that connection's whole request path
    /// behind the poll loop.
    pub const STAGE_SERIAL: ColorRange = ColorRange::new(0x0001, 0x0FFF);

    /// The *keyed plane*: where the stage
    /// layer's `StageSpec::keyed` colors hash to. Keyed-vs-keyed
    /// collisions remain possible (and safe — they only serialize);
    /// keyed-vs-serial collisions are impossible by construction.
    pub const STAGE_KEYED: ColorRange = ColorRange::new(0x1000, 0x7FFF);

    /// Creates the inclusive range `first..=last`.
    ///
    /// # Panics
    ///
    /// Panics if `first > last`.
    pub const fn new(first: u16, last: u16) -> Self {
        assert!(first <= last, "color range must not be empty");
        ColorRange { first, last }
    }

    /// First color of the range.
    pub const fn first(self) -> Color {
        Color(self.first)
    }

    /// Last color of the range.
    pub const fn last(self) -> Color {
        Color(self.last)
    }

    /// Number of colors in the range (at least 1).
    pub const fn len(self) -> u32 {
        (self.last - self.first) as u32 + 1
    }

    /// Ranges are never empty; present for API completeness.
    pub const fn is_empty(self) -> bool {
        false
    }

    /// Whether `color` falls inside the range.
    pub const fn contains(self, color: Color) -> bool {
        self.first <= color.0 && color.0 <= self.last
    }

    /// Hashes `key` into the range. Collisions serialize the two keys —
    /// safe by the coloring model, merely less parallel.
    pub const fn keyed(self, key: u64) -> Color {
        Color(self.first + (key % self.len() as u64) as u16)
    }
}

/// Where one pipeline's `StageSpec::keyed` messages hash to: the colors
/// of [`ColorRange::STAGE_KEYED`] that lie in the pipeline's residue
/// class, as the progression `first + stride * i` for `i < len`. The
/// stage router carries one of these ([`ColorSpace::keyed_plane`]), a
/// `Copy` value, on its per-event path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyedPlane {
    first: u16,
    stride: u16,
    len: u16,
}

impl KeyedPlane {
    /// Hashes `key` into the plane.
    #[inline]
    pub(crate) const fn color(self, key: u64) -> Color {
        if self.stride == 1 {
            // The default class is the whole plane: a constant divisor,
            // which the compiler turns into a multiply — the per-event
            // emit path pays no runtime division for it.
            ColorRange::STAGE_KEYED.keyed(key)
        } else {
            Color(self.first + self.stride * (key % self.len as u64) as u16)
        }
    }
}

/// The serial colors of one pipeline: a counter over
/// [`ColorRange::STAGE_SERIAL`] that only ever stops on one *residue
/// class* `(residue, modulus)`.
///
/// [`ColorSpace::alloc`] hands out the class's colors of the serial
/// plane in increasing order, and the keyed mapping
/// ([`ColorSpace::keyed`]) hashes into the class's colors of
/// [`ColorRange::STAGE_KEYED`]. Neither plane contains the default
/// color, and the two planes are disjoint, so an allocated stage color
/// never joins the all-serializing default color and never meets a
/// hashed per-message color.
///
/// The default class ([`ColorSpace::for_stages`]) is every color;
/// [`ColorSpace::congruent`] picks another — with `modulus` = the core
/// count, the color hash ([`Color::home_core`]) then sends the whole
/// pipeline to core `residue`, which is how the N-copy web server pins
/// one copy per core. Spaces of distinct residues are disjoint.
///
/// # Examples
///
/// ```
/// use mely_core::color::{Color, ColorRange, ColorSpace};
///
/// let mut space = ColorSpace::for_stages();
/// let a = space.alloc();
/// let b = space.alloc();
/// assert_eq!((a, b), (Color::new(1), Color::new(2)));
/// assert!(ColorRange::STAGE_SERIAL.contains(a));
/// ```
#[derive(Debug, Clone)]
pub struct ColorSpace {
    /// The color the next [`ColorSpace::alloc`] hands out (in the class).
    next: u32,
    /// The residue class `alloc` and `keyed` stay inside:
    /// colors ≡ `residue` (mod `modulus`). `(0, 1)` is every color.
    residue: u32,
    modulus: u32,
}

impl ColorSpace {
    /// The stage layer's default space: every serial-plane color, from
    /// the first one up (4095 colors).
    pub fn for_stages() -> Self {
        ColorSpace::congruent(0, 1)
    }

    /// [`ColorSpace::for_stages`] restricted to the residue class
    /// `residue` (mod `modulus`): serial allocations and keyed colors
    /// are all ≡ `residue`, still inside [`ColorRange::STAGE_SERIAL`]
    /// and [`ColorRange::STAGE_KEYED`] respectively. Spaces of distinct
    /// residues (same modulus) are disjoint, so pipelines built on them
    /// can share an executor.
    ///
    /// # Panics
    ///
    /// Panics if `residue >= modulus`, or if `modulus` exceeds the
    /// serial plane's size (a class must own at least one color of
    /// each plane).
    ///
    /// # Examples
    ///
    /// ```
    /// use mely_core::color::{ColorRange, ColorSpace};
    ///
    /// // Everything this space hands out is dispatched to core 3 of 8.
    /// let mut space = ColorSpace::congruent(3, 8);
    /// assert_eq!(space.alloc().home_core(8), 3);
    /// assert_eq!(space.keyed(12_345).home_core(8), 3);
    /// assert!(ColorRange::STAGE_KEYED.contains(space.keyed(12_345)));
    /// ```
    pub fn congruent(residue: usize, modulus: usize) -> Self {
        assert!(residue < modulus, "residue must be below the modulus");
        assert!(
            modulus <= ColorRange::STAGE_SERIAL.len() as usize,
            "modulus {modulus} leaves some class without a serial color"
        );
        let mut s = ColorSpace {
            next: 0,
            residue: residue as u32,
            modulus: modulus as u32,
        };
        s.next = s.class_ceil(ColorRange::STAGE_SERIAL.first as u32);
        s
    }

    /// The lowest value `>= v` that lies in this space's class.
    fn class_ceil(&self, v: u32) -> u32 {
        let m = self.modulus;
        v + (self.residue + m - v % m) % m
    }

    /// This space's slice of [`ColorRange::STAGE_KEYED`], in the `Copy`
    /// form the stage router hashes with.
    pub(crate) fn keyed_plane(&self) -> KeyedPlane {
        let plane = ColorRange::STAGE_KEYED;
        let first = self.class_ceil(plane.first as u32);
        KeyedPlane {
            first: first as u16,
            stride: self.modulus as u16,
            len: ((plane.last as u32 - first) / self.modulus + 1) as u16,
        }
    }

    /// The color a pipeline built on this space gives a
    /// `StageSpec::keyed` message with key `key`: `key` hashed into the
    /// colors of [`ColorRange::STAGE_KEYED`] that lie in the space's
    /// class. For the default class this is exactly
    /// `ColorRange::STAGE_KEYED.keyed(key)`.
    pub fn keyed(&self, key: u64) -> Color {
        self.keyed_plane().color(key)
    }

    /// The next serial color of the space's class.
    ///
    /// # Panics
    ///
    /// Panics when the class has no serial color left — with at least
    /// 4095 / `modulus` of them, exhaustion means a leak (e.g.
    /// allocating per request instead of per stage), not a workload
    /// that needs more colors.
    pub fn alloc(&mut self) -> Color {
        assert!(
            self.next <= ColorRange::STAGE_SERIAL.last as u32,
            "color space exhausted: every serial color of the class is allocated"
        );
        let c = Color(self.next as u16);
        self.next += self.modulus;
        c
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "color#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_color_is_zero() {
        assert_eq!(Color::DEFAULT, Color::new(0));
        assert!(Color::DEFAULT.is_default());
        assert_eq!(Color::default(), Color::DEFAULT);
    }

    #[test]
    fn home_core_is_modular_hash() {
        assert_eq!(Color::new(0).home_core(8), 0);
        assert_eq!(Color::new(13).home_core(8), 5);
        assert_eq!(Color::new(16).home_core(8), 0);
        assert_eq!(Color::new(65535).home_core(3), 65535 % 3);
    }

    #[test]
    fn display_and_conversion() {
        let c: Color = 7u16.into();
        assert_eq!(c.to_string(), "color#7");
        assert_eq!(c.value(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn home_core_rejects_zero_cores() {
        let _ = Color::new(1).home_core(0);
    }

    #[test]
    fn stage_planes_partition_the_lower_half() {
        let serial = ColorRange::STAGE_SERIAL;
        let keyed = ColorRange::STAGE_KEYED;
        assert_eq!(serial.first(), Color::new(1));
        assert_eq!(keyed.last(), Color::new(0x7FFF));
        assert_eq!(serial.len() + keyed.len(), 0x7FFF);
        assert!(!serial.contains(Color::DEFAULT));
        assert!(!keyed.contains(serial.last()));
        assert!(!serial.contains(keyed.first()));
        // for_stages can therefore never hand out a keyed-plane color.
        let mut s = ColorSpace::for_stages();
        for _ in 0..serial.len() {
            assert!(serial.contains(s.alloc()));
        }
    }

    #[test]
    fn keyed_colors_stay_in_range_and_avoid_default() {
        let (lower, upper) = (
            ColorRange::new(0x0001, 0x7FFF),
            ColorRange::new(0x8000, 0xFFFF),
        );
        for key in [0u64, 1, 0x7FFE, 0x7FFF, 0xFFFF, u64::MAX] {
            let c = lower.keyed(key);
            assert!(lower.contains(c), "key {key}");
            assert!(!c.is_default());
            assert!(upper.contains(upper.keyed(key)), "key {key}");
        }
        // Wrap-around is modular, not truncating.
        assert_eq!(lower.keyed(0x7FFF), lower.keyed(0));
    }

    /// The counter hands out exactly what the collision-checked bitmap
    /// allocator it replaced did (values captured from that allocator).
    #[test]
    fn allocations_and_keys_match_the_pinned_values() {
        let mut s = ColorSpace::for_stages();
        let first: Vec<u16> = (0..4).map(|_| s.alloc().value()).collect();
        assert_eq!(first, [1, 2, 3, 4]);
        let pinned = [
            (8, 16),
            (1, 9),
            (2, 10),
            (3, 11),
            (4, 12),
            (5, 13),
            (6, 14),
            (7, 15),
        ];
        for (c, want) in pinned.into_iter().enumerate() {
            let mut s = ColorSpace::congruent(c, 8);
            assert_eq!(
                (s.alloc().value(), s.alloc().value()),
                want,
                "class {c} mod 8"
            );
        }
        // key -> (for_stages, congruent(3, 8), congruent(5, 6))
        let keys = [
            (0u64, (4096, 4099, 4097)),
            (1, (4097, 4107, 4103)),
            (7, (4103, 4155, 4139)),
            (12_345, (16441, 16843, 20819)),
            (28_671, (32767, 32763, 32753)),
            (u64::MAX, (12287, 12283, 15095)),
        ];
        for (k, want) in keys {
            let got = (
                ColorSpace::for_stages().keyed(k).value(),
                ColorSpace::congruent(3, 8).keyed(k).value(),
                ColorSpace::congruent(5, 6).keyed(k).value(),
            );
            assert_eq!(got, want, "key {k}");
        }
    }

    #[test]
    fn default_class_keys_exactly_like_the_keyed_plane() {
        let space = ColorSpace::for_stages();
        let sweep = (0..100_000u64).chain([u64::MAX - 1, u64::MAX]);
        for k in sweep {
            assert_eq!(space.keyed(k), ColorRange::STAGE_KEYED.keyed(k), "key {k}");
        }
        // `congruent(0, 1)` is the default class under another name.
        let mut one = ColorSpace::congruent(0, 1);
        assert_eq!(one.keyed(77), ColorRange::STAGE_KEYED.keyed(77));
        assert_eq!(one.alloc(), ColorSpace::for_stages().alloc());
    }

    #[test]
    fn congruent_spaces_never_leave_their_class_or_planes() {
        // Power-of-two and not, small and at the size limit.
        for m in [2usize, 3, 7, 8, 12, 4095] {
            for r in [0, 1, m / 2, m - 1] {
                let mut s = ColorSpace::congruent(r, m);
                let in_class = |c: Color| c.value() as usize % m == r;
                // Every class owns at least 4095 / m serial colors.
                for _ in 0..(4095 / m).min(64) {
                    let c = s.alloc();
                    assert!(in_class(c), "alloc {c} outside {r} mod {m}");
                    assert!(ColorRange::STAGE_SERIAL.contains(c));
                }
                for k in (0..40_000u64).step_by(7).chain([u64::MAX]) {
                    let c = s.keyed(k);
                    assert!(in_class(c), "key {k} -> {c} outside {r} mod {m}");
                    assert!(ColorRange::STAGE_KEYED.contains(c));
                }
            }
        }
        // The keyed slice is used to its last color: the largest key
        // image is within one stride of the plane's end.
        let s = ColorSpace::congruent(5, 6);
        let top = (0..0x7000u64).map(|k| s.keyed(k)).max().unwrap();
        assert!(ColorRange::STAGE_KEYED.last().value() - top.value() < 6);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn a_class_runs_out_before_it_leaves_the_serial_plane() {
        let mut s = ColorSpace::congruent(0, 4095);
        assert_eq!(s.alloc(), Color::new(4095), "0 is the default color");
        // The next color ≡ 0 (mod 4095) lies in the keyed plane.
        let _ = s.alloc();
    }

    #[test]
    #[should_panic(expected = "below the modulus")]
    fn congruent_rejects_a_residue_outside_the_modulus() {
        let _ = ColorSpace::congruent(8, 8);
    }
}

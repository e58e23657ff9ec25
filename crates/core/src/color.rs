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
/// split into two *planes*: [`ColorRange::STAGE_SERIAL`] (allocator
/// territory — [`ColorSpace::for_stages`] hands serial stage colors out
/// of it) and [`ColorRange::STAGE_KEYED`] (hash territory —
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
    /// [`ColorSpace::for_stages`] allocates serial stage colors from.
    /// Disjoint from [`ColorRange::STAGE_KEYED`], so an
    /// allocator-assigned stage color can never collide with a hashed
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
/// stage router carries one of these ([`ColorSpace::keyed_plane`]) so
/// the per-event path never touches the allocator's bitmap.
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

/// Error returned by [`ColorSpace::claim`] when the color is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColorTaken(
    /// The contested color.
    pub Color,
);

impl fmt::Display for ColorTaken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} is already allocated or reserved", self.0)
    }
}

impl std::error::Error for ColorTaken {}

/// A collision-checked allocator over the 16-bit color space.
///
/// Hand-picking `u16` colors works for one service; the moment two
/// services (or a service and the `mely-net` bridge) share an executor,
/// silent collisions serialize unrelated work — or worse, couple a
/// stage to a listener. `ColorSpace` makes the assignment explicit: a
/// bitmap tracks every allocated or reserved color, [`ColorSpace::alloc`]
/// hands out the lowest free color, and [`ColorSpace::claim`] takes a
/// specific one, failing loudly on a collision.
///
/// [`ColorSpace::for_stages`] is the configuration the stage layer
/// builds on: the default color and the whole listener range are
/// reserved, so allocated stage colors can never shadow a listener and
/// never silently join the all-serializing default color.
///
/// A space also answers "which colors may this pipeline use": it
/// carries a *residue class* `(residue, modulus)`, and both
/// [`ColorSpace::alloc`] and the keyed mapping ([`ColorSpace::keyed`])
/// only ever produce colors ≡ `residue` (mod `modulus`). The default
/// class `(0, 1)` is every color; [`ColorSpace::congruent`] picks
/// another — with `modulus` = the core count, the color hash
/// ([`Color::home_core`]) then sends the whole pipeline to core
/// `residue`, which is how the N-copy web server pins one copy per
/// core.
///
/// # Examples
///
/// ```
/// use mely_core::color::{Color, ColorRange, ColorSpace};
///
/// let mut space = ColorSpace::for_stages();
/// let a = space.alloc();
/// let b = space.alloc();
/// assert_ne!(a, b);
/// assert!(!a.is_default());
/// assert!(ColorRange::STAGE_SERIAL.contains(a));
/// assert!(space.claim(a).is_err(), "collision-checked");
/// ```
#[derive(Clone)]
pub struct ColorSpace {
    /// One bit per color; set = allocated or reserved.
    used: Box<[u64; COLOR_SPACE / 64]>,
    /// Lowest value `alloc` still has to inspect.
    cursor: u32,
    /// Colors handed out or explicitly claimed/reserved (excluding the
    /// implicit default-color reservation).
    allocated: u32,
    /// The residue class `alloc` and `keyed` stay inside:
    /// colors ≡ `residue` (mod `modulus`). `(0, 1)` is every color.
    residue: u32,
    modulus: u32,
}

impl Default for ColorSpace {
    fn default() -> Self {
        ColorSpace::new()
    }
}

impl ColorSpace {
    /// An empty space with only [`Color::DEFAULT`] reserved (the default
    /// color serializes *everything* mapped to it and must never be
    /// handed out implicitly).
    pub fn new() -> Self {
        let mut s = ColorSpace {
            used: Box::new([0u64; COLOR_SPACE / 64]),
            cursor: 1,
            allocated: 0,
            residue: 0,
            modulus: 1,
        };
        s.set(Color::DEFAULT);
        s
    }

    /// The stage layer's configuration: [`Color::DEFAULT`] and
    /// everything above the serial plane (the keyed plane,
    /// [`ColorRange::STAGE_KEYED`], and the unused upper half) reserved,
    /// so serial allocations come from [`ColorRange::STAGE_SERIAL`]
    /// (4095 colors) and can never shadow a hashed per-message stage
    /// color.
    pub fn for_stages() -> Self {
        let mut s = ColorSpace::new();
        s.reserve_range(ColorRange::new(ColorRange::STAGE_KEYED.first, u16::MAX));
        s
    }

    /// [`ColorSpace::for_stages`] restricted to the residue class
    /// `residue` (mod `modulus`): serial allocations and keyed colors
    /// are all ≡ `residue`, still inside [`ColorRange::STAGE_SERIAL`]
    /// and [`ColorRange::STAGE_KEYED`] respectively. Spaces of distinct
    /// residues (same modulus) are disjoint, so pipelines built on them
    /// can share an executor without reserving each other's territory.
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
        let mut s = ColorSpace::for_stages();
        s.residue = residue as u32;
        s.modulus = modulus as u32;
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

    fn set(&mut self, c: Color) {
        self.used[c.0 as usize / 64] |= 1u64 << (c.0 % 64);
    }

    /// Whether `color` has been allocated or reserved.
    pub fn is_used(&self, color: Color) -> bool {
        self.used[color.0 as usize / 64] >> (color.0 % 64) & 1 == 1
    }

    /// Colors handed out through [`ColorSpace::alloc`] /
    /// [`ColorSpace::claim`] / [`ColorSpace::reserve_range`] (the
    /// implicit default-color reservation is not counted).
    pub fn allocated(&self) -> u32 {
        self.allocated
    }

    /// Allocates the lowest free color of the space's class.
    ///
    /// # Panics
    ///
    /// Panics when the space is exhausted — with 65 535 allocatable
    /// colors, exhaustion means a leak (e.g. allocating per request
    /// instead of per stage), not a workload that needs more colors.
    pub fn alloc(&mut self) -> Color {
        let start = self.class_ceil(self.cursor);
        for v in (start..COLOR_SPACE as u32).step_by(self.modulus as usize) {
            let c = Color(v as u16);
            if !self.is_used(c) {
                self.set(c);
                self.cursor = v + 1;
                self.allocated += 1;
                return c;
            }
        }
        panic!("color space exhausted: every color of the class is allocated or reserved");
    }

    /// Claims a specific color, failing if it is already taken. Use for
    /// externally mandated colors (a paper-mandated assignment, a color
    /// another subsystem already publishes) that must still be
    /// collision-checked against the rest of the application. The
    /// space's residue class does not apply: the caller names the
    /// color.
    ///
    /// # Errors
    ///
    /// Returns [`ColorTaken`] when the color is already allocated or
    /// reserved.
    pub fn claim(&mut self, color: Color) -> Result<Color, ColorTaken> {
        if self.is_used(color) {
            return Err(ColorTaken(color));
        }
        self.set(color);
        self.allocated += 1;
        Ok(color)
    }

    /// Reserves every color of `range`, so [`ColorSpace::alloc`] skips
    /// it and [`ColorSpace::claim`] fails inside it. Already-claimed
    /// colors inside the range stay claimed (reservation is idempotent).
    ///
    /// Word-granular: whole `u64`s of the bitmap are filled directly
    /// (with masked edge words), so reserving a 32K-color plane — done
    /// by every `PipelineBuilder::new` via [`ColorSpace::for_stages`] —
    /// is a few dozen operations, not one loop iteration per color.
    pub fn reserve_range(&mut self, range: ColorRange) {
        let (first, last) = (range.first as usize, range.last as usize);
        for w in first / 64..=last / 64 {
            let lo = first.max(w * 64) % 64;
            let hi = last.min(w * 64 + 63) % 64;
            // Bits lo..=hi of word w lie inside the range.
            let mask = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
            let newly = mask & !self.used[w];
            self.used[w] |= mask;
            self.allocated += newly.count_ones();
        }
    }
}

impl fmt::Debug for ColorSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColorSpace")
            .field("allocated", &self.allocated)
            .field("cursor", &self.cursor)
            .finish()
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
        for _ in 0..16 {
            assert!(serial.contains(s.alloc()));
        }
        assert!(s.is_used(keyed.first()) && s.is_used(keyed.last()));
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

    #[test]
    fn color_space_allocates_without_collisions() {
        let mut s = ColorSpace::new();
        let a = s.alloc();
        let b = s.alloc();
        assert_eq!(a, Color::new(1), "default color is never handed out");
        assert_eq!(b, Color::new(2));
        assert!(s.is_used(a) && s.is_used(b));
        assert!(!s.is_used(Color::new(3)));
        assert_eq!(s.allocated(), 2);
        assert_eq!(s.claim(a), Err(ColorTaken(a)));
        assert_eq!(s.claim(Color::new(100)), Ok(Color::new(100)));
        // Alloc skips explicitly claimed colors.
        for _ in 0..97 {
            s.alloc();
        }
        assert_eq!(s.alloc(), Color::new(101), "alloc skipped the claim");
    }

    #[test]
    fn for_stages_reserves_the_upper_half_and_default() {
        let mut s = ColorSpace::for_stages();
        assert!(s.is_used(Color::DEFAULT));
        assert!(s.is_used(Color::new(0x8000)));
        assert!(s.is_used(Color::new(0xFFFF)));
        assert!(s.claim(Color::new(0x8000)).is_err());
        let c = s.alloc();
        assert!(ColorRange::STAGE_SERIAL.contains(c));
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

    #[test]
    fn reserve_range_is_idempotent_over_claims() {
        let mut s = ColorSpace::new();
        s.claim(Color::new(10)).unwrap();
        s.reserve_range(ColorRange::new(8, 12));
        assert_eq!(s.allocated(), 5, "10 was counted once");
        for v in 8..=12u16 {
            assert!(s.is_used(Color::new(v)));
        }
        assert_eq!(s.alloc(), Color::new(1));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhausted_space_panics() {
        let mut s = ColorSpace::new();
        s.reserve_range(ColorRange::new(1, u16::MAX));
        let _ = s.alloc();
    }

    #[test]
    fn color_taken_displays_the_color() {
        assert!(ColorTaken(Color::new(7)).to_string().contains("color#7"));
    }
}

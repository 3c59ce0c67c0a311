//! Candidate pools: typed rows drawn together with their encodings, for
//! search loops that score many candidates and keep few.

use rand::Rng;

use crate::config::Configuration;
use crate::plan::{Drawn, TypedValue};
use crate::space::ParamSpace;

/// Maximum rejection-sampling attempts before falling back to defaults.
const MAX_REJECTS: usize = 256;

/// A pool of candidate rows of one space, each drawn (or decoded),
/// admitted and encoded in one pass.
///
/// A row holds one typed value per parameter, in space order, with a
/// categorical held as its choice index; rows and their encodings sit
/// in two contiguous buffers that [`reset`](Self::reset) empties but
/// keeps, so a scan that redraws its pool every round stops allocating
/// once the buffers have grown. A row becomes a [`Configuration`] —
/// with its choices' strings — only through [`config`](Self::config).
///
/// Draw for draw, [`push_uniform`](Self::push_uniform) is
/// [`sample::uniform`] and [`push_neighbor`](Self::push_neighbor) (with
/// [`fall_back`](Self::fall_back) on rejection) is [`neighbor`]; every
/// row's encoding is bit for bit [`ParamSpace::encode`] of its
/// configuration.
///
/// [`sample::uniform`]: crate::sample::uniform
/// [`neighbor`]: crate::neighbor
///
/// # Example
///
/// ```
/// use confspace::{spark::spark_space, CandidatePool};
/// use rand::SeedableRng;
///
/// let space = spark_space();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut pool = CandidatePool::new(&space);
/// for _ in 0..16 {
///     pool.push_uniform(&space, &mut rng);
/// }
/// pool.set_base(&space, &space.default_configuration());
/// if !pool.push_neighbor(&space, 0.05, 0.4, &mut rng) {
///     pool.fall_back();
/// }
/// assert_eq!(pool.len(), 17);
/// let pick = pool.config(&space, 3);
/// assert!(space.validate(&pick).is_ok());
/// assert_eq!(space.encode(&pick), pool.encoding(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CandidatePool {
    /// Values per row: the space's parameter count.
    width: usize,
    /// Number of rows.
    len: usize,
    /// Typed values, row after row.
    rows: Vec<TypedValue>,
    /// Encodings, row after row.
    encoded: Vec<f64>,
    base: Base,
}

/// The base of neighbour draws, prepared once by
/// [`CandidatePool::set_base`].
#[derive(Debug, Clone, Default)]
struct Base {
    /// The base configuration's encoding.
    encoded: Vec<f64>,
    /// Each coordinate of `encoded` decoded: a dimension a move leaves
    /// unchanged decodes to this (decoding is pure).
    decoded: Vec<Drawn>,
    /// The clamped base, typed and encoded: the row a rejected move
    /// falls back to.
    clamped: Vec<TypedValue>,
    clamped_encoded: Vec<f64>,
}

impl CandidatePool {
    /// An empty pool for rows of `space`.
    pub fn new(space: &ParamSpace) -> Self {
        let mut pool = CandidatePool::default();
        pool.reset(space);
        pool
    }

    /// Empties the pool for rows of `space`, keeping its buffers, and
    /// forgets the neighbour base.
    pub fn reset(&mut self, space: &ParamSpace) {
        self.width = space.len();
        self.len = 0;
        self.base.encoded.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row and returns its range in the buffers, which only
    /// grow: the values past the last row are stale and never read.
    fn grow(&mut self) -> (usize, usize) {
        let start = self.len * self.width;
        let end = start + self.width;
        self.len += 1;
        if self.rows.len() < end {
            self.rows.resize(end, TypedValue::Bool(false));
            self.encoded.resize(end, 0.0);
        }
        (start, end)
    }

    /// Draws a uniform row, redrawing it exactly when
    /// [`ParamSpace::validate`] would reject its configuration; after 256
    /// rejected draws the row is the space's defaults.
    pub fn push_uniform<R: Rng + ?Sized>(&mut self, space: &ParamSpace, rng: &mut R) {
        debug_assert_eq!(space.len(), self.width, "pool was reset for another space");
        let (start, end) = self.grow();
        let (row, enc) = (&mut self.rows[start..end], &mut self.encoded[start..end]);
        for _ in 0..MAX_REJECTS {
            let mut admitted = true;
            for ((slot, x), dim) in row.iter_mut().zip(enc.iter_mut()).zip(space.dims()) {
                let (t, unit, ok) = dim.draw(rng);
                *slot = t;
                *x = unit;
                admitted &= ok;
            }
            if admitted && space.constraints_hold(row) {
                debug_assert!(space.validate(&space.config_of_typed(row)).is_ok());
                return;
            }
        }
        let defaults = space.dims().iter().zip(space.default_typed());
        for ((slot, x), (dim, t)) in row.iter_mut().zip(enc.iter_mut()).zip(defaults) {
            *slot = t;
            *x = dim.unit(t);
        }
    }

    /// Makes `cfg` the base of later [`push_neighbor`](Self::push_neighbor)
    /// draws: encodes it, decodes each coordinate of that encoding once,
    /// and clamps it for [`fall_back`](Self::fall_back).
    pub fn set_base(&mut self, space: &ParamSpace, cfg: &Configuration) {
        debug_assert_eq!(space.len(), self.width, "pool was reset for another space");
        let base = &mut self.base;
        base.encoded = space.encode(cfg);
        base.decoded.clear();
        let dims = space.dims().iter();
        base.decoded.extend(
            dims.clone()
                .zip(&base.encoded)
                .map(|(dim, &x)| dim.decode(x)),
        );
        base.clamped.clear();
        base.clamped.extend(space.clamp_typed(cfg));
        base.clamped_encoded.clear();
        base.clamped_encoded
            .extend(dims.zip(&base.clamped).map(|(dim, &t)| dim.unit(t)));
    }

    /// Draws a neighbour of the base: each coordinate of the base's
    /// encoding moves with probability `rate` by a Gaussian-ish step of
    /// relative size `scale` (fraction of the range), and the moved
    /// encoding is decoded and re-encoded; a coordinate the move leaves
    /// alone reuses the base's decode. Returns whether the move is
    /// admitted, exactly when [`ParamSpace::validate`] accepts the row's
    /// configuration. A rejected move stays in the pool until
    /// [`fall_back`](Self::fall_back) replaces it.
    ///
    /// # Panics
    ///
    /// Panics unless [`set_base`](Self::set_base) was called since the
    /// last [`reset`](Self::reset).
    pub fn push_neighbor<R: Rng + ?Sized>(
        &mut self,
        space: &ParamSpace,
        scale: f64,
        rate: f64,
        rng: &mut R,
    ) -> bool {
        assert_eq!(
            self.base.encoded.len(),
            self.width,
            "neighbour draw without a base"
        );
        let (start, end) = self.grow();
        let (row, enc, base) = (
            &mut self.rows[start..end],
            &mut self.encoded[start..end],
            &self.base,
        );
        let mut admitted = true;
        let slots = row.iter_mut().zip(enc.iter_mut()).zip(space.dims());
        let unmoved = base.encoded.iter().zip(&base.decoded);
        for (((slot, x), dim), (&from, &same)) in slots.zip(unmoved) {
            let (t, unit, ok) = if rng.gen::<f64>() < rate {
                // Box-Muller-free Gaussian-ish step: sum of 4 uniforms.
                let g: f64 = (0..4).map(|_| rng.gen::<f64>() - 0.5).sum::<f64>() / 2.0;
                dim.decode((from + g * scale * 2.0).clamp(0.0, 1.0))
            } else {
                same
            };
            *slot = t;
            *x = unit;
            admitted &= ok;
        }
        let admitted = admitted && space.constraints_hold(row);
        debug_assert_eq!(
            admitted,
            space.validate(&space.config_of_typed(row)).is_ok()
        );
        admitted
    }

    /// Replaces the last row — a rejected neighbour — with the clamped
    /// base.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty or has no base.
    pub fn fall_back(&mut self) {
        assert!(self.len > 0, "fall back on an empty pool");
        let start = (self.len - 1) * self.width;
        let end = start + self.width;
        self.rows[start..end].copy_from_slice(&self.base.clamped);
        self.encoded[start..end].copy_from_slice(&self.base.clamped_encoded);
    }

    /// Keeps the rows whose `keep` entry is true, in order, with their
    /// encodings.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != len()`.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len, "one keep flag per row");
        let w = self.width;
        let mut kept = 0;
        for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            self.rows.copy_within(i * w..(i + 1) * w, kept * w);
            self.encoded.copy_within(i * w..(i + 1) * w, kept * w);
            kept += 1;
        }
        self.len = kept;
    }

    /// The encoding of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn encoding(&self, i: usize) -> &[f64] {
        assert!(i < self.len, "row {i} of a pool of {}", self.len);
        &self.encoded[i * self.width..(i + 1) * self.width]
    }

    /// Row `i` as a configuration of `space`, the space the pool was
    /// reset for.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn config(&self, space: &ParamSpace, i: usize) -> Configuration {
        assert!(i < self.len, "row {i} of a pool of {}", self.len);
        debug_assert_eq!(space.len(), self.width, "pool was reset for another space");
        space.config_of_typed(&self.rows[i * self.width..(i + 1) * self.width])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spark::spark_space;
    use rand::SeedableRng;

    #[test]
    fn retain_keeps_the_flagged_rows_in_order() {
        let space = spark_space();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut pool = CandidatePool::new(&space);
        for _ in 0..9 {
            pool.push_uniform(&space, &mut rng);
        }
        let before: Vec<(Configuration, Vec<f64>)> = (0..pool.len())
            .map(|i| (pool.config(&space, i), pool.encoding(i).to_vec()))
            .collect();
        let keep: Vec<bool> = (0..9).map(|i| i % 3 != 1).collect();
        pool.retain(&keep);
        let kept: Vec<&(Configuration, Vec<f64>)> = before
            .iter()
            .zip(&keep)
            .filter_map(|(row, &k)| k.then_some(row))
            .collect();
        assert_eq!(pool.len(), kept.len());
        for (i, (config, encoding)) in kept.into_iter().enumerate() {
            assert_eq!(&pool.config(&space, i), config);
            assert_eq!(pool.encoding(i), &encoding[..]);
        }
        pool.push_uniform(&space, &mut rng);
        assert_eq!(pool.len(), 7);
    }
}

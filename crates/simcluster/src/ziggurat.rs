//! Standard-normal draws by the ziggurat method of Marsaglia & Tsang
//! ("The Ziggurat Method for Generating Random Variables", J. Stat.
//! Software 5(8), 2000), with 256 layers.
//!
//! The upper half of the unnormalised density `f(x) = exp(-x²/2)` is
//! covered by 255 stacked rectangles and a base layer (a rectangle plus
//! the tail beyond `R`), each of area `V`. Layer `i` spans `[0, x[i])`;
//! the part left of `x[i + 1]` lies wholly under the curve. One 64-bit
//! word picks a layer and a signed point across it, and ~99% of draws
//! land under the curve and are returned as they are; the rest take
//! the wedge test (one more uniform and an `exp`) or, in the base layer,
//! Marsaglia's tail algorithm. The method is exact: the draws are
//! N(0, 1).

use std::sync::OnceLock;

use rand::Rng;

/// Layers in the ziggurat.
const LAYERS: usize = 256;

/// Where the tail begins: the base layer's rectangle ends here.
const R: f64 = 3.654_152_885_361_009;

/// The area of every layer: `R·f(R) + ∫_R^∞ f`, to double precision.
/// Marsaglia & Tsang print 0.00492867323399, 3e-12 high for this `R`,
/// which would leave the top layer 1e-9 short of the others.
const V: f64 = 0.004_928_673_233_974_658;

/// Maps the top 52 bits of a word onto `[0, 2)`.
const TWO_OVER_2_52: f64 = 2.0 / (1u64 << 52) as f64;

/// Layer edges `x[0..=256]` (`x[0] = V / f(R)` is the base layer's
/// effective width, `x[1] = R`, `x[256] = 0`) and the density at each.
struct Tables {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / pdf(R);
        x[1] = R;
        // Each layer's top edge is where a rectangle of area V on the
        // layer below meets the curve; the top layer closes at x = 0.
        for i in 2..LAYERS {
            x[i] = (-2.0 * (V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        Tables { x, f: x.map(pdf) }
    })
}

/// Draws one N(0, 1) value.
pub(crate) fn standard_normal<G: Rng + ?Sized>(rng: &mut G) -> f64 {
    let t = tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = (bits >> 12) as f64 * TWO_OVER_2_52 - 1.0; // [-1, 1)
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            return tail(rng, u < 0.0);
        }
        // The wedge between the curve and the layer's outer corner.
        if t.f[i] + (t.f[i + 1] - t.f[i]) * rng.gen::<f64>() < pdf(x) {
            return x;
        }
    }
}

/// A draw from the normal tail beyond `R`, negated when `negative`.
fn tail<G: Rng + ?Sized>(rng: &mut G, negative: bool) -> f64 {
    loop {
        // 1 - U lies in (0, 1], so both logarithms are finite.
        let x = -(1.0 - rng.gen::<f64>()).ln() / R;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y >= x * x {
            return if negative { -(R + x) } else { R + x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `∫_R^∞ f` by composite Simpson's rule over `[R, R + 12]` (the
    /// rest is below 1e-40).
    fn tail_area() -> f64 {
        let (a, n) = (R, 40_000);
        let h = 12.0 / n as f64;
        let inner: f64 = (1..n)
            .map(|k| pdf(a + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (pdf(a) + inner + pdf(a + 12.0)) * h / 3.0
    }

    #[test]
    fn layers_are_ordered_and_equal_in_area() {
        let t = tables();
        assert_eq!(t.x[1], R);
        assert_eq!(t.x[LAYERS], 0.0);
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "edges must fall");
        let close = |area: f64, what: &str| {
            assert!((area - V).abs() / V < 1e-12, "{what}: area {area} vs V {V}");
        };
        close(R * t.f[1] + tail_area(), "base rectangle + tail");
        for i in 1..LAYERS {
            close(t.x[i] * (t.f[i + 1] - t.f[i]), &format!("layer {i}"));
        }
    }

    #[test]
    fn draws_have_normal_moments_and_tails() {
        const N: usize = 1_000_000;
        let mut rng = StdRng::seed_from_u64(0x2166);
        let (mut s1, mut s2, mut s4) = (0.0, 0.0, 0.0);
        let mut beyond = [0usize; 4]; // |z| > 1, 2, 3, R
        for _ in 0..N {
            let z = standard_normal(&mut rng);
            let z2 = z * z;
            s1 += z;
            s2 += z2;
            s4 += z2 * z2;
            for (count, edge) in beyond.iter_mut().zip([1.0, 2.0, 3.0, R]) {
                *count += usize::from(z.abs() > edge);
            }
        }
        let n = N as f64;
        let mean = s1 / n;
        let var = s2 / n - mean * mean;
        let kurt = (s4 / n) / (var * var);
        // Bands are 5+ standard errors: sqrt(1/n), sqrt(2/n), sqrt(24/n).
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.0075, "variance {var}");
        assert!((kurt - 3.0).abs() < 0.025, "kurtosis {kurt}");
        // P(|z| > 1, 2, 3, R), each within 5 binomial standard errors;
        // |z| > R only comes from the tail path.
        let exact = [0.317_310_5, 0.045_500_26, 0.002_699_796, 0.000_258_032_5];
        for ((&count, p), edge) in beyond.iter().zip(exact).zip(["1", "2", "3", "R"]) {
            let got = count as f64 / n;
            let se = (p * (1.0 - p) / n).sqrt();
            assert!(
                (got - p).abs() < 5.0 * se,
                "P(|z| > {edge}) = {got}, want {p}"
            );
        }
    }

    #[test]
    fn one_seed_gives_one_stream() {
        let stream = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10_000)
                .map(|_| standard_normal(&mut rng).to_bits())
                .collect()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
    }
}

//! Seeded input generation and the pixel digest the output check compares.

use mgpu_volren::Image;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `lane` (a user, a phase) of one seed.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit() as f32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1 / (r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// 64-bit digest of every pixel's exact bit pattern (not its float value:
/// `-0.0` and `0.0`, or two NaN payloads, digest differently). Delivered
/// frames are digested as they arrive and compared with the digest of a
/// reference render once the timed phase is over, so the check keeps no
/// frames alive and adds no work inside a request's latency window.
pub fn digest(image: &Image) -> u64 {
    let mut h =
        0xcbf2_9ce4_8422_2325u64 ^ (u64::from(image.width()) << 32 | u64::from(image.height()));
    for px in image.pixels() {
        let lo = u64::from(px[0].to_bits()) | u64::from(px[1].to_bits()) << 32;
        let hi = u64::from(px[2].to_bits()) | u64::from(px[3].to_bits()) << 32;
        h = (h ^ lo).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        h = (h ^ hi).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(31);
    }
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forks_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..8).map(|_| Rng::fork(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(8, 1).next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::fork(3, 0);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Weight of rank 0 is 1 / H(100) ≈ 0.193; of rank 1 half that.
        assert!((3400..4400).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        // Rank 99 has weight 1 / (100 · H(100)) ≈ 0.0019: about 39 draws.
        assert!((15..70).contains(&counts[99]), "{}", counts[99]);
    }

    #[test]
    fn digest_sees_single_bit_flips() {
        let img = Image::from_pixels(2, 2, vec![[0.5, 0.25, 0.0, 1.0]; 4]);
        let mut pixels = img.pixels().to_vec();
        pixels[3][2] = -0.0;
        let flipped = Image::from_pixels(2, 2, pixels);
        assert_eq!(digest(&img), digest(&img.clone()));
        assert_ne!(digest(&img), digest(&flipped));
        let wide = Image::from_pixels(4, 1, img.pixels().to_vec());
        assert_ne!(digest(&img), digest(&wide), "shape is part of the digest");
    }
}

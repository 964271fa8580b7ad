//! Inputs made from the workload seed: the site seed and the query order —
//! and nothing else. The program under test receives only these inputs.

use ajax_dom::Fnv64;
use ajax_webgen::query_workload;
use std::collections::HashSet;

/// SplitMix64: tiny, seedable, and good enough to order queries.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The independent stream of `seed` for one named purpose.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_str(purpose);
    h.finish()
}

/// The query pool: the 100 workload phrases, then each distinct term of
/// those phrases, then pairwise concatenations `(i < j)` of the phrases
/// until `size` distinct texts exist. The same for every seed — only the
/// order in which a run draws from it is seeded.
pub fn query_pool(size: usize) -> Vec<String> {
    let phrases: Vec<String> = query_workload().into_iter().map(|q| q.text).collect();
    let mut seen: HashSet<String> = HashSet::new();
    let mut pool = Vec::with_capacity(size);
    let mut push = |text: String, pool: &mut Vec<String>| {
        if pool.len() < size && seen.insert(text.clone()) {
            pool.push(text);
        }
    };
    for p in &phrases {
        push(p.clone(), &mut pool);
    }
    for p in &phrases {
        for term in p.split_whitespace() {
            push(term.to_string(), &mut pool);
        }
    }
    'pairs: for i in 0..phrases.len() {
        for j in i + 1..phrases.len() {
            if pool.len() >= size {
                break 'pairs;
            }
            push(format!("{} {}", phrases[i], phrases[j]), &mut pool);
        }
    }
    pool
}

fn shuffle(items: &mut [u32], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// `blocks` independently shuffled copies of `0..pool`, one after another:
/// every query occurs exactly `blocks` times in the whole sequence and
/// exactly `k` times in its first `k` blocks. The seed decides the order,
/// never the amount of work.
pub fn shuffled_blocks(seed: u64, pool: usize, blocks: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut seq = Vec::with_capacity(pool * blocks);
    for _ in 0..blocks {
        let start = seq.len();
        seq.extend(0..pool as u32);
        shuffle(&mut seq[start..], &mut rng);
    }
    seq
}

/// How often each rank `0..pool` occurs among `ops` draws from Zipf(`s`)
/// (rank 0 most popular): `ops · p(rank)`, rounded by largest remainder so
/// the counts sum to `ops`.
pub fn zipf_counts(pool: usize, s: f64, ops: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=pool).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * ops as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b].fract())
            .total_cmp(&exact[a].fract())
            .then(a.cmp(&b))
    });
    let missing = ops - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(missing) {
        counts[rank] += 1;
    }
    counts
}

/// `ops` indices into a pool in popularity order (the workload phrases come
/// in decreasing cardinality), each rank as often as Zipf(`s`) says, in an
/// order the seed decides.
pub fn zipf_sequence(seed: u64, pool: usize, s: f64, ops: usize) -> Vec<u32> {
    let mut seq = Vec::with_capacity(ops);
    for (rank, count) in zipf_counts(pool, s, ops).into_iter().enumerate() {
        seq.extend(std::iter::repeat_n(rank as u32, count));
    }
    shuffle(&mut seq, &mut SplitMix64::new(seed));
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_phrases_then_terms_then_pairs() {
        let pool = query_pool(2_000);
        assert_eq!(pool.len(), 2_000);
        let distinct: HashSet<&String> = pool.iter().collect();
        assert_eq!(distinct.len(), 2_000, "texts are distinct");
        assert_eq!(pool[0], "wow");
        assert_eq!(pool[99], "slow motion");
        // First term that is not itself a phrase: "our" of "our song".
        assert_eq!(pool[100], "our");
        assert!(pool.contains(&"wow dance".to_string()));
        assert_eq!(query_pool(300), pool[..300]);
        assert_eq!(query_pool(2_000), pool, "no seed involved");
    }

    #[test]
    fn sequences_repeat_per_seed_and_differ_across_seeds_in_order_only() {
        let a = shuffled_blocks(7, 300, 4);
        assert_eq!(a, shuffled_blocks(7, 300, 4));
        let b = shuffled_blocks(8, 300, 4);
        assert_ne!(a, b);
        assert_eq!(a[..600], shuffled_blocks(7, 300, 2), "a prefix of blocks");
        for block in a.chunks(300).chain(b.chunks(300)) {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            assert!(
                sorted.iter().copied().eq(0..300),
                "each block holds every query once"
            );
        }

        let z = zipf_sequence(7, 2_000, 1.0, 5_000);
        assert_eq!(z, zipf_sequence(7, 2_000, 1.0, 5_000));
        let y = zipf_sequence(8, 2_000, 1.0, 5_000);
        assert_ne!(z, y);
        let (mut zs, mut ys) = (z.clone(), y);
        zs.sort_unstable();
        ys.sort_unstable();
        assert_eq!(zs, ys, "the same queries, in another order");
    }

    #[test]
    fn zipf_counts_follow_the_law_and_sum_to_ops() {
        let counts = zipf_counts(2_000, 1.0, 20_000);
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
        // 20 000 / H(2000) = 2445.48, and half of it for rank 1.
        assert!(
            (2_445..=2_446).contains(&counts[0]),
            "rank 0: {}",
            counts[0]
        );
        assert!(
            (1_222..=1_223).contains(&counts[1]),
            "rank 1: {}",
            counts[1]
        );
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "monotone in rank");
        let hottest: usize = counts[..256].iter().sum();
        assert!(
            (14_000..16_000).contains(&hottest),
            "256 hottest = {hottest}"
        );
        assert_eq!(
            zipf_counts(3, 0.0, 10),
            vec![4, 3, 3],
            "ties go to low ranks"
        );

        let seq = zipf_sequence(1, 2_000, 1.0, 20_000);
        assert_eq!(seq.len(), 20_000);
        assert_eq!(seq.iter().filter(|&&q| q == 0).count(), counts[0]);
    }

    #[test]
    fn sub_seeds_are_independent_streams() {
        assert_eq!(sub_seed(1, "site"), sub_seed(1, "site"));
        assert_ne!(sub_seed(1, "site"), sub_seed(1, "order"));
        assert_ne!(sub_seed(1, "site"), sub_seed(2, "site"));
    }
}

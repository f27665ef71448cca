//! Label arithmetic from Section II of the paper.
//!
//! The paper defines three small utilities that all of its constructions are
//! phrased with:
//!
//! * the *h-digit base-m representation* `[x_{h-1}, x_{h-2}, …, x_0]_m` of a
//!   non-negative integer,
//! * the *rank* of an element in a set of integers
//!   (`Rank(x, S) = |{y ∈ S : y < x}|`), and
//! * the function `X(z, m, r, s) = (z·m + r) mod s`, which expresses the
//!   "shift left one digit, append r" de Bruijn edge arithmetically.

/// The function `X(z, m, r, s) = (z·m + r) mod s` from Section II.
///
/// `r` is signed because the fault-tolerant constructions use offsets in
/// `{-(m-1)k, …, (m-1)(k+1)}`. The result is always reduced into `0..s`.
///
/// # Panics
/// Panics if `s == 0`.
pub fn x_fn(z: usize, m: usize, r: i64, s: usize) -> usize {
    assert!(s > 0, "X(z, m, r, s) requires s > 0");
    let zm = (z as i128) * (m as i128) + (r as i128);
    let s = s as i128;
    (((zm % s) + s) % s) as usize
}

/// `Rank(x, S)`: the number of elements of `S` that are smaller than `x`.
///
/// `S` is given as a slice; it does not need to be sorted and may or may not
/// contain `x` itself (consistent with the paper, only *smaller* elements are
/// counted).
pub fn rank(x: usize, set: &[usize]) -> usize {
    set.iter().filter(|&&y| y < x).count()
}

/// The h-digit base-m representation `[x_{h-1}, …, x_0]` of `x`
/// (most-significant digit first).
///
/// # Panics
/// Panics if `m < 2` or if `x >= m^h` (the value does not fit in `h` digits).
pub fn to_digits(x: usize, m: usize, h: usize) -> Vec<usize> {
    assert!(m >= 2, "base must be at least 2");
    let mut digits = vec![0usize; h];
    let mut rest = x;
    for d in (0..h).rev() {
        digits[h - 1 - d] = (rest / m.pow(d as u32)) % m;
    }
    rest = x;
    for _ in 0..h {
        rest /= m;
    }
    assert!(rest == 0, "{x} does not fit in {h} base-{m} digits");
    digits
}

/// Reassembles an integer from its base-m digit vector (most-significant
/// digit first). Inverse of [`to_digits`].
pub fn from_digits(digits: &[usize], m: usize) -> usize {
    assert!(m >= 2, "base must be at least 2");
    digits.iter().fold(0usize, |acc, &d| {
        assert!(d < m, "digit {d} out of range for base {m}");
        acc * m + d
    })
}

/// Formats a node label the way the paper prints it: the `h` base-m digits
/// with no separators (e.g. `x = 6, m = 2, h = 4` → `"0110"`).
pub fn format_label(x: usize, m: usize, h: usize) -> String {
    to_digits(x, m, h)
        .into_iter()
        .map(|d| {
            std::char::from_digit(d as u32, 36)
                .expect("digit below base 36")
                .to_ascii_uppercase()
        })
        .collect()
}

/// Left-rotates the h-digit base-m representation of `x` by one digit
/// (the *shuffle* permutation). `[x_{h-1}, x_{h-2}, …, x_0] →
/// [x_{h-2}, …, x_0, x_{h-1}]`.
pub(crate) fn rotate_left(x: usize, m: usize, h: usize) -> usize {
    let total = m.pow(h as u32);
    assert!(x < total, "{x} out of range for {h} base-{m} digits");
    let msd = x / m.pow(h as u32 - 1);
    (x % m.pow(h as u32 - 1)) * m + msd
}

/// Right-rotates the h-digit base-m representation of `x` by one digit
/// (the *unshuffle* permutation). Inverse of [`rotate_left`].
pub(crate) fn rotate_right(x: usize, m: usize, h: usize) -> usize {
    let total = m.pow(h as u32);
    assert!(x < total, "{x} out of range for {h} base-{m} digits");
    let lsd = x % m;
    x / m + lsd * m.pow(h as u32 - 1)
}

/// `m^h` as a `usize`, panicking on overflow. The paper's graphs have
/// `m^h + k` nodes; this helper keeps the arithmetic in one place.
pub fn pow_nodes(m: usize, h: usize) -> usize {
    let mut n = 1usize;
    for _ in 0..h {
        n = n
            .checked_mul(m)
            .expect("m^h overflows usize; choose smaller parameters");
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn x_fn_matches_definition() {
        assert_eq!(x_fn(5, 2, 0, 16), 10);
        assert_eq!(x_fn(5, 2, 1, 16), 11);
        assert_eq!(x_fn(12, 2, 1, 16), 9); // wraps
        assert_eq!(x_fn(0, 3, -1, 7), 6); // negative offsets wrap upwards
        assert_eq!(x_fn(3, 4, -20, 9), (12i64 - 20).rem_euclid(9) as usize);
    }

    #[test]
    #[should_panic]
    fn x_fn_rejects_zero_modulus() {
        x_fn(1, 2, 0, 0);
    }

    #[test]
    fn rank_examples_from_paper() {
        // "if S is finite Rank(min(S), S) = 0 and Rank(max(S), S) = |S| - 1"
        let s = [4usize, 9, 2, 7];
        assert_eq!(rank(2, &s), 0);
        assert_eq!(rank(9, &s), 3);
        assert_eq!(rank(5, &s), 2);
    }

    #[test]
    fn digits_roundtrip_examples() {
        assert_eq!(to_digits(6, 2, 4), vec![0, 1, 1, 0]);
        assert_eq!(from_digits(&[0, 1, 1, 0], 2), 6);
        assert_eq!(to_digits(25, 3, 3), vec![2, 2, 1]);
        assert_eq!(from_digits(&[2, 2, 1], 3), 25);
        assert_eq!(format_label(6, 2, 4), "0110");
        assert_eq!(format_label(35, 6, 2), "55");
    }

    #[test]
    #[should_panic]
    fn to_digits_rejects_overflow_value() {
        to_digits(16, 2, 4);
    }

    #[test]
    fn rotations() {
        // 0110 -> 1100 (left), 0110 -> 0011 (right)
        assert_eq!(rotate_left(0b0110, 2, 4), 0b1100);
        assert_eq!(rotate_right(0b0110, 2, 4), 0b0011);
        // base 3, digits [1,2,0] = 15 -> [2,0,1] = 19 (left)
        assert_eq!(rotate_left(15, 3, 3), 19);
        assert_eq!(rotate_right(19, 3, 3), 15);
    }

    #[test]
    fn pow_nodes_small() {
        assert_eq!(pow_nodes(2, 10), 1024);
        assert_eq!(pow_nodes(3, 4), 81);
        assert_eq!(pow_nodes(7, 0), 1);
    }

    proptest! {
        #[test]
        fn digits_roundtrip(m in 2usize..6, h in 1usize..8, seed in 0usize..100000) {
            let n = pow_nodes(m, h);
            let x = seed % n;
            let d = to_digits(x, m, h);
            prop_assert_eq!(d.len(), h);
            prop_assert_eq!(from_digits(&d, m), x);
        }

        #[test]
        fn rotate_left_right_inverse(m in 2usize..6, h in 1usize..8, seed in 0usize..100000) {
            let n = pow_nodes(m, h);
            let x = seed % n;
            prop_assert_eq!(rotate_right(rotate_left(x, m, h), m, h), x);
            prop_assert_eq!(rotate_left(rotate_right(x, m, h), m, h), x);
        }

        #[test]
        fn rotate_h_times_is_identity(m in 2usize..5, h in 1usize..7, seed in 0usize..100000) {
            let n = pow_nodes(m, h);
            let mut x = seed % n;
            let original = x;
            for _ in 0..h {
                x = rotate_left(x, m, h);
            }
            prop_assert_eq!(x, original);
        }

        #[test]
        fn x_fn_is_shift_and_append(m in 2usize..5, h in 2usize..7, seed in 0usize..100000, r in 0usize..4) {
            let n = pow_nodes(m, h);
            let x = seed % n;
            let r = r % m;
            // X(x, m, r, m^h) drops the most significant digit and appends r.
            let mut digits = to_digits(x, m, h);
            digits.remove(0);
            digits.push(r);
            prop_assert_eq!(x_fn(x, m, r as i64, n), from_digits(&digits, m));
        }

        #[test]
        fn rank_never_exceeds_set_size(x in 0usize..100, ref set in proptest::collection::vec(0usize..100, 0..20)) {
            prop_assert!(rank(x, set) <= set.len());
        }
    }
}

//! The rational kernel against a reference copy of its Euclid-based
//! predecessor.
//!
//! The kernel takes the gcd with the binary algorithm and divides on the
//! 64-bit divider when both operands fit, so its fast paths switch at the
//! 64-bit boundary. The operands here mix random values of every width
//! with edge magnitudes on both sides of that boundary (0, ±1, 2³¹,
//! 2³² ± 1, 2⁶², 2⁶³ − 1, 2⁶³, 2⁶³ + 1, 2⁶⁴, 2⁹⁶, 2¹²⁶ and `i128::MAX`),
//! and every result must equal the reference's: the same value, and
//! `None` for exactly the same inputs.

use proptest::prelude::*;
use proptest::TestRng;
use std::cmp::Ordering;
use streamgate_ilp::Rational;

const EDGES: [i128; 13] = [
    0,
    1,
    1 << 31,
    (1 << 32) - 1,
    (1 << 32) + 1,
    1 << 62,
    (1 << 63) - 1,
    1 << 63,
    (1 << 63) + 1,
    1 << 64,
    1 << 96,
    1 << 126,
    i128::MAX,
];

/// Euclid's gcd over `i128`, as the kernel computed it before.
fn ref_gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The former `Rational::new`, as `(num, den)`. For an `i128::MIN`
/// numerator, where it panicked (debug) or kept an `i128::MIN` term
/// (release), the reference halves both terms while the denominator is
/// even, which keeps the value exact, and is `None` otherwise.
fn ref_new(num: i128, den: i128) -> Option<(i128, i128)> {
    if num == i128::MIN {
        return if den % 2 == 0 {
            ref_new(num / 2, den / 2)
        } else {
            None
        };
    }
    let g = ref_gcd(num, den);
    let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
    if den < 0 {
        num = -num;
        den = -den;
    }
    Some((num, den))
}

/// The former `checked_add`.
fn ref_add(a: (i128, i128), b: (i128, i128)) -> Option<(i128, i128)> {
    let g = ref_gcd(a.1, b.1);
    let l = (a.1 / g).checked_mul(b.1)?;
    let x = a.0.checked_mul(b.1 / g)?;
    let y = b.0.checked_mul(a.1 / g)?;
    ref_new(x.checked_add(y)?, l)
}

/// The former `checked_mul`.
fn ref_mul(a: (i128, i128), b: (i128, i128)) -> Option<(i128, i128)> {
    let g1 = ref_gcd(a.0, b.1);
    let g2 = ref_gcd(b.0, a.1);
    let num = (a.0 / g1).checked_mul(b.0 / g2)?;
    let den = (a.1 / g2).checked_mul(b.1 / g1)?;
    ref_new(num, den)
}

/// The former `Ord::cmp`.
fn ref_cmp(a: (i128, i128), b: (i128, i128)) -> Ordering {
    let g_num = ref_gcd(a.0, b.0);
    let g_den = ref_gcd(a.1, b.1);
    let (an, ad) = (a.0 / g_num.max(1), a.1 / g_den);
    let (bn, bd) = (b.0 / g_num.max(1), b.1 / g_den);
    match (an.checked_mul(bd), bn.checked_mul(ad)) {
        (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
        _ => ref_cmp_fractions(an, ad, bn, bd),
    }
}

/// The former `cmp_fractions`.
fn ref_cmp_fractions(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
    loop {
        let (qa, ra) = (a.div_euclid(b), a.rem_euclid(b));
        let (qc, rc) = (c.div_euclid(d), c.rem_euclid(d));
        match (qa.cmp(&qc), ra, rc) {
            (Ordering::Equal, 0, 0) => return Ordering::Equal,
            (Ordering::Equal, 0, _) => return Ordering::Less,
            (Ordering::Equal, _, 0) => return Ordering::Greater,
            (Ordering::Equal, _, _) => (a, b, c, d) = (d, rc, b, ra),
            (o, _, _) => return o,
        }
    }
}

fn terms(r: Rational) -> (i128, i128) {
    (r.numer(), r.denom())
}

/// Build an operand both ways and require the same terms.
fn operand(num: i128, den: i128) -> Result<(Rational, (i128, i128)), TestCaseError> {
    let r = Rational::new(num, den);
    let want = ref_new(num, den).expect("no i128::MIN term is drawn");
    prop_assert_eq!(terms(r), want, "new({}, {})", num, den);
    Ok((r, want))
}

/// Every kernel operation on one pair of operands against the reference.
fn check_pair(a: (i128, i128), b: (i128, i128)) -> Result<(), TestCaseError> {
    let (x, rx) = operand(a.0, a.1)?;
    let (y, ry) = operand(b.0, b.1)?;
    prop_assert_eq!(
        x.checked_add(&y).map(terms),
        ref_add(rx, ry),
        "{:?} + {:?}",
        x,
        y
    );
    prop_assert_eq!(
        x.checked_mul(&y).map(terms),
        ref_mul(rx, ry),
        "{:?} * {:?}",
        x,
        y
    );
    prop_assert_eq!(x.cmp(&y), ref_cmp(rx, ry), "{:?} cmp {:?}", x, y);
    prop_assert_eq!(x.floor(), rx.0.div_euclid(rx.1), "floor {:?}", x);
    prop_assert_eq!(x.ceil(), -((-rx.0).div_euclid(rx.1)), "ceil {:?}", x);
    Ok(())
}

/// A term: an edge magnitude nudged by up to ±2, a small value, or a random
/// value of random width, with a random sign. Never `i128::MIN`.
struct Term;

impl Strategy for Term {
    type Value = i128;
    fn generate(&self, rng: &mut TestRng) -> i128 {
        let magnitude = match rng.below(4) {
            0 | 1 => {
                let edge = EDGES[rng.below(EDGES.len() as u64) as usize];
                let nudge = rng.below(5) as i128 - 2;
                edge.checked_add(nudge).unwrap_or(edge).abs()
            }
            2 => rng.below(1 << 16) as i128,
            _ => {
                let bits = 1 + rng.below(127) as u32;
                let raw = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                (raw >> (128 - bits)) as i128
            }
        };
        if rng.below(2) == 0 {
            magnitude
        } else {
            -magnitude
        }
    }
}

fn nonzero() -> impl Strategy<Value = i128> {
    Term.prop_filter("denominator must be nonzero", |d| *d != 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn kernel_matches_euclid_reference(
        (n1, d1) in (Term, nonzero()),
        (n2, d2) in (Term, nonzero()),
    ) {
        check_pair((n1, d1), (n2, d2))?;
    }
}

#[test]
fn kernel_matches_euclid_reference_on_every_edge_pair() {
    let nums: Vec<i128> = EDGES.iter().flat_map(|&e| [e, -e]).collect();
    let operands: Vec<(i128, i128)> = nums
        .iter()
        .flat_map(|&n| EDGES[1..].iter().map(move |&d| (n, d)))
        .collect();
    for &a in &operands {
        for &b in &operands {
            if let Err(TestCaseError::Fail(msg)) = check_pair(a, b) {
                panic!("{a:?}, {b:?}: {msg}");
            }
        }
    }
}

#[test]
fn i128_min_results_are_refused_or_reduced() {
    // −2^126 − 2^126 = −2^127 over 1: no reduced form holds it.
    let half = Rational::new(-(1 << 126), 1);
    assert_eq!(half.checked_add(&half), None);
    assert_eq!(half.checked_mul(&Rational::new(2, 1)), None);
    assert_eq!(half.checked_mul(&Rational::new(2, 3)), None);
    // Over 2 the same numerator reduces to −2^126.
    let (x, y) = (
        Rational::new(-(1 << 126) - 1, 2),
        Rational::new(-(1 << 126) + 1, 2),
    );
    assert_eq!(x.checked_add(&y), Some(half));
    for (a, b) in [(half, half), (x, y)] {
        assert_eq!(a.checked_add(&b).map(terms), ref_add(terms(a), terms(b)));
    }
}

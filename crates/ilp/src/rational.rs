//! Exact rational arithmetic over `i128`.
//!
//! The simplex and branch-and-bound solvers in this crate run entirely on
//! exact rationals so that pivoting never suffers from floating-point
//! tolerance issues. Numerators and denominators are kept reduced (gcd = 1,
//! denominator > 0, neither term `i128::MIN`, so negation never overflows)
//! after every operation; cross-reduction is applied before multiplication
//! to keep intermediate magnitudes small.
//!
//! The block-size ILPs derived from the paper involve coefficients like
//! `μ_s · c_0` with `μ_s` a samples-per-cycle rate (e.g. 44100 / 12_480_000)
//! and `c_0`, `c_1` cycle counts — all comfortably inside `i128` once reduced.
//! Most terms even fit 64 bits, so the kernel takes the gcd with the binary
//! (Stein) algorithm and divides on the 64-bit divider whenever both
//! operands fit: a 128-bit `/` or `%` is a software routine.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Greatest common divisor (non-negative) of two `i128`s.
///
/// Panics if the result is 2¹²⁷ (one operand `i128::MIN`, the other zero
/// or `i128::MIN`), which `i128` cannot hold.
pub fn gcd(a: i128, b: i128) -> i128 {
    i128::try_from(gcd_u128(a.unsigned_abs(), b.unsigned_abs()))
        .expect("gcd(i128::MIN, 0) is 2^127, which does not fit i128")
}

/// Least common multiple (non-negative), or `None` if it leaves `i128`.
pub fn lcm(a: i128, b: i128) -> Option<i128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
    let l = div_u128(a, gcd_u128(a, b)).checked_mul(b)?;
    i128::try_from(l).ok()
}

/// Binary gcd of two magnitudes, on `u64` once both fit.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 1 {
        return b;
    }
    if b == 0 || a == 1 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    b >>= b.trailing_zeros();
    // Both odd from here on; each round halves `b` at least once.
    while (a | b) >> 64 != 0 {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
        b >>= b.trailing_zeros();
    }
    (gcd_odd_u64(a as u64, b as u64) as u128) << shift
}

/// Binary gcd of two odd `u64`s.
fn gcd_odd_u64(mut a: u64, mut b: u64) -> u64 {
    while a != b {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        b >>= b.trailing_zeros();
    }
    a
}

/// `a / b` for `b > 0`, skipping a divisor of 1 and on the 64-bit divider
/// when both operands fit.
fn div_u128(a: u128, b: u128) -> u128 {
    if b == 1 {
        a
    } else if (a | b) >> 64 == 0 {
        (a as u64 / b as u64) as u128
    } else {
        a / b
    }
}

/// `a / b` (truncating) for `b > 0`, like [`div_u128`].
fn div_i128(a: i128, b: i128) -> i128 {
    if b == 1 {
        a
    } else if fits_i64(a) && fits_i64(b) {
        (a as i64 / b as i64) as i128
    } else {
        a / b
    }
}

fn fits_i64(v: i128) -> bool {
    v as i64 as i128 == v
}

/// An exact rational number `num / den` with `den > 0`, `gcd(num, den) == 1`
/// and `num != i128::MIN`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Construct from a numerator and denominator. Panics if `den == 0`,
    /// or if a term of the reduced value is 2¹²⁷ (e.g. `new(1, i128::MIN)`),
    /// which would break the invariant that no term is `i128::MIN`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        Rational::reduced(num, den).expect(
            "Rational::new: a reduced term is 2^127, and no term of a Rational may be i128::MIN",
        )
    }

    /// `num / den` in lowest terms with a positive denominator, or `None`
    /// if a term of that form would be 2¹²⁷. Requires `den != 0`.
    fn reduced(num: i128, den: i128) -> Option<Rational> {
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_u128(n, d);
        let n = i128::try_from(div_u128(n, g)).ok()?;
        let d = i128::try_from(div_u128(d, g)).ok()?;
        let n = if (num < 0) != (den < 0) { -n } else { n };
        Some(Rational { num: n, den: d })
    }

    /// `num / den` for a `den > 0` already coprime to `num`, or `None` if
    /// `num` is `i128::MIN`.
    fn coprime(num: i128, den: i128) -> Option<Rational> {
        (num != i128::MIN).then_some(Rational { num, den })
    }

    /// Construct from an integer. Panics on `i128::MIN`, which no term of
    /// a `Rational` may be.
    pub fn from_int(v: i128) -> Self {
        assert!(
            v != i128::MIN,
            "Rational::from_int: no term of a Rational may be i128::MIN"
        );
        Rational { num: v, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// True if this value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True if zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// True if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Sign as -1, 0, or 1.
    pub fn signum(&self) -> i128 {
        self.num.signum()
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> i128 {
        if self.den == 1 {
            self.num
        } else if fits_i64(self.num) && fits_i64(self.den) {
            (self.num as i64).div_euclid(self.den as i64) as i128
        } else {
            self.num.div_euclid(self.den)
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> i128 {
        if self.den == 1 {
            self.num
        } else if fits_i64(self.num) && fits_i64(self.den) {
            // `-num` may leave i64, so round the floor up instead.
            let (n, d) = (self.num as i64, self.den as i64);
            n.div_euclid(d) as i128 + i128::from(n.rem_euclid(d) != 0)
        } else {
            -((-self.num).div_euclid(self.den))
        }
    }

    /// Fractional part `self - floor(self)`, in `[0, 1)`.
    pub fn fract(&self) -> Rational {
        *self - Rational::from_int(self.floor())
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        // Swapping coprime terms keeps them coprime; only the sign moves.
        if self.num < 0 {
            Rational {
                num: -self.den,
                den: -self.num,
            }
        } else {
            Rational {
                num: self.den,
                den: self.num,
            }
        }
    }

    /// Lossy conversion for reporting.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact integer value if `den == 1`.
    pub fn as_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Checked addition (None on overflow, or if the sum's reduced
    /// numerator would be `i128::MIN`).
    pub fn checked_add(&self, rhs: &Rational) -> Option<Rational> {
        if self.num == 0 {
            return Some(*rhs);
        }
        if rhs.num == 0 {
            return Some(*self);
        }
        let g = gcd_u128(self.den as u128, rhs.den as u128) as i128;
        let (ld, rd) = (div_i128(self.den, g), div_i128(rhs.den, g));
        let l = ld.checked_mul(rhs.den)?;
        let a = self.num.checked_mul(rd)?;
        let b = rhs.num.checked_mul(ld)?;
        let sum = a.checked_add(b)?;
        if g == 1 {
            // A prime dividing one denominator divides exactly one term of
            // the sum, so coprime denominators give a sum in lowest terms.
            Rational::coprime(sum, l)
        } else {
            Rational::reduced(sum, l)
        }
    }

    /// Checked multiplication with cross-reduction (None on overflow, or if
    /// the product's numerator would be `i128::MIN`).
    pub fn checked_mul(&self, rhs: &Rational) -> Option<Rational> {
        if self.num == 0 || rhs.num == 0 {
            return Some(Rational::ZERO);
        }
        let g1 = gcd_u128(self.num.unsigned_abs(), rhs.den as u128) as i128;
        let g2 = gcd_u128(rhs.num.unsigned_abs(), self.den as u128) as i128;
        let num = div_i128(self.num, g1).checked_mul(div_i128(rhs.num, g2))?;
        let den = div_i128(self.den, g2).checked_mul(div_i128(rhs.den, g1))?;
        // Cross-reduced factors of two fractions in lowest terms are coprime.
        Rational::coprime(num, den)
    }

    /// `min` of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `max` of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational::from_int(v)
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<u64> for Rational {
    fn from(v: u64) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<(i128, i128)> for Rational {
    fn from((n, d): (i128, i128)) -> Self {
        Rational::new(n, d)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0).
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        if fits_i64(self.num) && fits_i64(other.num) && (self.den | other.den) >> 64 == 0 {
            // |a·d| < 2⁶³ · 2⁶⁴: the products fit i128.
            return (self.num * other.den).cmp(&(other.num * self.den));
        }
        // Reduce first to avoid overflow.
        let g_num = (gcd_u128(self.num.unsigned_abs(), other.num.unsigned_abs()) as i128).max(1);
        let g_den = gcd_u128(self.den as u128, other.den as u128) as i128;
        let (an, ad) = (div_i128(self.num, g_num), div_i128(self.den, g_den));
        let (bn, bd) = (div_i128(other.num, g_num), div_i128(other.den, g_den));
        match (an.checked_mul(bd), bn.checked_mul(ad)) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => cmp_fractions(an, ad, bn, bd),
        }
    }
}

/// `a/b` against `c/d` for `b, d > 0`, in terms that never grow: equal
/// integer parts defer to the remainders, and `r/b ? s/d` is `d/s ? b/r`
/// (Euclid's algorithm on both fractions at once). The fallback of
/// [`Rational::cmp`] where cross-multiplying would overflow.
fn cmp_fractions(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
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

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(&rhs).expect("rational add overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs).expect("rational mul overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    // Division by a rational IS multiplication by its reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

/// Convenience constructor: `rat(3, 4)` is 3/4.
pub fn rat(num: i128, den: i128) -> Rational {
    Rational::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(7, 13), 1);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6), Some(12));
        assert_eq!(lcm(0, 6), Some(0));
        assert_eq!(lcm(-4, 6), Some(12));
        assert_eq!(lcm(i128::MIN, 2), None);
        assert_eq!(lcm(i128::MAX, i128::MAX - 1), None);
        assert_eq!(lcm(1 << 126, 1 << 100), Some(1 << 126));
    }

    #[test]
    fn binary_gcd_on_wide_magnitudes() {
        assert_eq!(gcd(i128::MIN, 6), 2);
        assert_eq!(gcd(i128::MIN, 1 << 100), 1 << 100);
        assert_eq!(gcd(i128::MAX, i128::MAX), i128::MAX);
        assert_eq!(gcd(3 << 100, 9 << 70), 3 << 70);
        assert_eq!(gcd(-(5 << 90), 10), 10);
        assert_eq!(
            gcd(u64::MAX as i128 * 3, u64::MAX as i128 * 5),
            u64::MAX as i128
        );
    }

    #[test]
    fn i128_min_terms_are_refused() {
        // A reduced term of 2^127 is refused; an even one halves to fit.
        let half = Rational::new(-(1 << 126), 1);
        assert_eq!(half.checked_add(&half), None);
        assert_eq!(half.checked_mul(&rat(2, 1)), None);
        assert_eq!(half.checked_mul(&rat(2, 3)), None);
        assert_eq!(half.checked_add(&rat(-(1 << 126), 3)), None);
        assert_eq!(
            rat(-(1 << 126), 2).checked_add(&rat(-(1 << 126), 2)),
            Some(half)
        );
        assert_eq!(Rational::new(i128::MIN, 2), half);
        assert_eq!(Rational::new(i128::MIN, i128::MIN), Rational::ONE);
        assert_eq!(-rat(i128::MAX, 1), rat(-i128::MAX, 1));
    }

    #[test]
    #[should_panic(expected = "no term of a Rational may be i128::MIN")]
    fn i128_min_denominator_panics() {
        let _ = Rational::new(1, i128::MIN);
    }

    #[test]
    #[should_panic(expected = "no term of a Rational may be i128::MIN")]
    fn i128_min_numerator_panics() {
        let _ = Rational::new(i128::MIN, 7);
    }

    #[test]
    fn construction_normalises() {
        let r = Rational::new(6, -8);
        assert_eq!(r.numer(), -3);
        assert_eq!(r.denom(), 4);
        assert_eq!(Rational::new(0, -5), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = rat(1, 2);
        let b = rat(1, 3);
        assert_eq!(a + b, rat(5, 6));
        assert_eq!(a - b, rat(1, 6));
        assert_eq!(a * b, rat(1, 6));
        assert_eq!(a / b, rat(3, 2));
        assert_eq!(-a, rat(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert_eq!(rat(2, 4), rat(1, 2));
        assert!(rat(7, 1) > rat(13, 2));
    }

    #[test]
    fn ordering_never_overflows() {
        // Coprime terms near 2^126: cross-multiplying overflows i128.
        let big = 1i128 << 126;
        let (a, b) = (rat(big - 1, big - 3), rat(big - 5, big - 7));
        assert_eq!((a.cmp(&b), b.cmp(&a)), (Ordering::Less, Ordering::Greater));
        assert!(rat(-(big - 1), big - 3) > rat(-(big - 5), big - 7));
        assert!(rat(big - 1, 3) > rat(big - 3, 5));
        assert_eq!(a.cmp(&a), Ordering::Equal);
        // The fallback agrees with cross-multiplication wherever that fits.
        let terms = [-7i128, -3, -1, 0, 1, 2, 3, 5, 8, 13];
        for &n1 in &terms {
            for &n2 in &terms {
                for d1 in 1..7i128 {
                    for d2 in 1..7i128 {
                        assert_eq!(
                            cmp_fractions(n1, d1, n2, d2),
                            (n1 * d2).cmp(&(n2 * d1)),
                            "{n1}/{d1} vs {n2}/{d2}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn floor_ceil_fract() {
        assert_eq!(rat(7, 2).floor(), 3);
        assert_eq!(rat(7, 2).ceil(), 4);
        assert_eq!(rat(-7, 2).floor(), -4);
        assert_eq!(rat(-7, 2).ceil(), -3);
        assert_eq!(rat(3, 1).floor(), 3);
        assert_eq!(rat(3, 1).ceil(), 3);
        assert_eq!(rat(7, 2).fract(), rat(1, 2));
        assert_eq!(rat(-7, 2).fract(), rat(1, 2));
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(rat(-3, 4).recip(), rat(-4, 3));
        assert_eq!(rat(-3, 4).abs(), rat(3, 4));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn integer_queries() {
        assert!(rat(4, 2).is_integer());
        assert_eq!(rat(4, 2).as_integer(), Some(2));
        assert_eq!(rat(1, 2).as_integer(), None);
    }

    #[test]
    fn cross_reduction_avoids_overflow() {
        // (2^100 / 3) * (3 / 2^100) must not overflow thanks to cross-reduction.
        let big = 1i128 << 100;
        let a = rat(big, 3);
        let b = rat(3, big);
        assert_eq!(a * b, Rational::ONE);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", rat(3, 4)), "3/4");
        assert_eq!(format!("{}", rat(8, 4)), "2");
    }

    #[test]
    fn min_max() {
        assert_eq!(rat(1, 2).min(rat(1, 3)), rat(1, 3));
        assert_eq!(rat(1, 2).max(rat(1, 3)), rat(1, 2));
    }
}

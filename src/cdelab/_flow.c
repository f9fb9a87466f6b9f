/* The fused stepping loops of cdelab.integrators and the float printer of
 * cdelab.serialize, compiled.
 *
 * flow_rk4 and flow_midpoint do the same double operations, in the same
 * order, as integrators._rk4 and integrators._midpoint, so built without
 * floating-point contraction (-ffp-contract=off: no fused multiply-add)
 * they give the same bits.  Each runs n steps from the state s[1..4] and
 * writes the table of the run: row k, s[6k..6k+5], is t = dt k (numpy's
 * dt * arange), state k and its H in dynamics.hamiltonian's operation
 * order, so the same bits as numpy's; s holds 6 (n + 1) doubles.  Each
 * returns 0, or the 1-based step that failed, with its cause in *cause:
 *
 *   1  a component of the new state is NaN or beyond limit (the state
 *      is written)
 *   2  the midpoint Newton iteration stalled; *rr is its last squared
 *      residual
 *   3  the midpoint Newton matrix is singular
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { OVERFLOW = 1, STALL = 2, SINGULAR = 3 };

/* row k of the table at r; returns whether the state is in [-limit, limit] */
static int put_row(double *r, int64_t k, double dt, double u, double v,
                   double a, double b, double limit)
{
    r[0] = dt * (double)k, r[1] = u, r[2] = v, r[3] = a, r[4] = b;
    r[5] = 0.5 * v * v + 0.5 * u * u * (a * a + b * b - 0.25) - a * b;
    return -limit <= u && u <= limit && -limit <= v && v <= limit
        && -limit <= a && a <= limit && -limit <= b && b <= limit;
}

int64_t flow_rk4(double *s, int64_t n, double dt, double limit, int32_t *cause)
{
    double h = 0.5 * dt, c = dt / 6.0;
    double u = s[1], v = s[2], a = s[3], b = s[4];
    put_row(s, 0, dt, u, v, a, b, limit);
    for (int64_t i = 0; i < n; i++) {
        double w = u * u;
        double k1u = v, k1v = -(a * a + b * b - 0.25) * u;
        double k1a = -a + w * b, k1b = b - w * a;
        double x = u + h * k1u, p = a + h * k1a, q = b + h * k1b;
        w = x * x;
        double k2u = v + h * k1v, k2v = -(p * p + q * q - 0.25) * x;
        double k2a = -p + w * q, k2b = q - w * p;
        x = u + h * k2u, p = a + h * k2a, q = b + h * k2b;
        w = x * x;
        double k3u = v + h * k2v, k3v = -(p * p + q * q - 0.25) * x;
        double k3a = -p + w * q, k3b = q - w * p;
        x = u + dt * k3u, p = a + dt * k3a, q = b + dt * k3b;
        w = x * x;
        double nu = u + c * (k1u + 2.0 * k2u + 2.0 * k3u + (v + dt * k3v));
        double nv = v + c * (k1v + 2.0 * k2v + 2.0 * k3v
                             + -(p * p + q * q - 0.25) * x);
        double na = a + c * (k1a + 2.0 * k2a + 2.0 * k3a + (-p + w * q));
        double nb = b + c * (k1b + 2.0 * k2b + 2.0 * k3b + (q - w * p));
        u = nu, v = nv, a = na, b = nb;
        if (!put_row(s + 6 * (i + 1), i + 1, dt, u, v, a, b, limit)) {
            *cause = OVERFLOW;
            return i + 1;
        }
    }
    return 0;
}

int64_t flow_midpoint(double *s, int64_t n, double dt, double newton_tol,
                      int64_t max_iters, double limit, int32_t *cause,
                      double *rr_out)
{
    double h = 0.5 * dt, tol2 = newton_tol * newton_tol;
    double u = s[1], v = s[2], a = s[3], b = s[4];
    put_row(s, 0, dt, u, v, a, b, limit);
    for (int64_t i = 0; i < n; i++) {
        double w = u * u;
        double xu = u + dt * v, xv = v + dt * (-(a * a + b * b - 0.25) * u);
        double xa = a + dt * (-a + w * b), xb = b + dt * (b - w * a);
        for (int64_t it = 0;; it++) {
            double mu = 0.5 * (u + xu), ma = 0.5 * (a + xa),
                   mb = 0.5 * (b + xb);
            double g = ma * ma + mb * mb - 0.25;
            w = mu * mu;
            double r0 = xu - u - dt * (0.5 * (v + xv));
            double r1 = xv - v - dt * (-g * mu);
            double r2 = xa - a - dt * (-ma + w * mb);
            double r3 = xb - b - dt * (mb - w * ma);
            double rr = r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3;
            /* the pre-test, then the exact rule, as in _midpoint */
            if (rr <= tol2)
                break;
            if (rr <= 2.0 * tol2 * (1.0 + xu * xu + xv * xv + xa * xa
                                    + xb * xb)) {
                double t = newton_tol * fmax(fmax(fmax(fmax(1.0, fabs(xu)),
                                                         fabs(xv)), fabs(xa)),
                                              fabs(xb));
                if (rr <= t * t)
                    break;
            }
            if (it == max_iters) {
                *cause = STALL;
                *rr_out = rr;
                return i + 1;
            }
            double hu = h * mu, hg = h * g;
            double p = 2.0 * hu * ma, q = 2.0 * hu * mb, hw = hu * mu;
            double c2 = r2 + q * r0, c3 = r3 - p * r0;
            double det_ab = 1.0 - h * h + hw * hw;
            double e2 = (1.0 - h) * c2 + hw * c3, e3 = (1.0 + h) * c3 - hw * c2;
            double g2 = h * (hw * p - (1.0 - h) * q);
            double g3 = h * ((1.0 + h) * p + hw * q);
            double det = (1.0 + h * hg) * det_ab - p * g2 - q * g3;
            if (det == 0.0 || det_ab == 0.0) {
                *cause = SINGULAR;
                return i + 1;
            }
            double d1 = ((r1 - hg * r0) * det_ab - p * e2 - q * e3) / det;
            xu = xu - (r0 + h * d1), xv = xv - d1;
            xa = xa - (e2 - g2 * d1) / det_ab, xb = xb - (e3 - g3 * d1) / det_ab;
        }
        u = xu, v = xv, a = xa, b = xb;
        if (!put_row(s + 6 * (i + 1), i + 1, dt, u, v, a, b, limit)) {
            *cause = OVERFLOW;
            return i + 1;
        }
    }
    return 0;
}


/* write_floats writes the text of a float64 table a, n rows of m values
 * (m < 0: a 1-D array of n values), to out and returns its length.  Each
 * float is repr's spelling of its shortest round-trip digits, found as the
 * JDK's DoubleToDecimal does (R. Giulietti, "The Schubfach way to render
 * doubles", 2020) less Java's two-digit minimum, and with no branch on 16
 * or 17 digits; g holds the pairs (g1, g0) of 10^-k, k = -324 .. 292, from
 * integrators._flow_kernel.  With depth < 0 the rows are CSV lines a,b,c\n,
 * with nan and inf; else the text is json.dumps(a.tolist(), indent=2) as a
 * value at that depth, with NaN and Infinity.  A float takes at most 24
 * bytes, so with v values in r rows (r = 0 for a 1-D array) no byte past
 * CSV's 25 v + r, or json's v (2 depth + 30) + r (4 depth + 9) + 2 depth
 * + 3, is written. */
#define C_MIN (1ULL << 52)
typedef unsigned __int128 u128;

static const uint64_t POW10[] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
    1000000000, 10000000000, 100000000000, 1000000000000, 10000000000000,
    100000000000000, 1000000000000000, 10000000000000000, 100000000000000000};

static const char DIGITS2[] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/* (g[0] 2^63 + g[1]) cp / 2^127, rounded to odd */
static uint64_t rop(const uint64_t *g, uint64_t cp)
{
    u128 y = (u128)g[0] * cp;
    uint64_t z = ((uint64_t)y >> 1) + (uint64_t)(((u128)g[1] * cp) >> 64);
    return ((uint64_t)(y >> 64) + (z >> 63)) | ((z << 1) != 0);
}

/* the shortest f, with *e, such that f 10^e rounds to c 2^q, c > 0; the
 * products give floor(q log10 2), floor(log10(3/4 2^q)), floor(-k log2 10).
 * Of s = floor(c 2^q 10^-k) and t = s + 1, it is s's or t's multiple of ten
 * over ten, with *e = k + 1, where just one lies in the rounding interval;
 * else s or t where just one does; else the nearer, the even one on a tie.
 * Masks, not branches, choose: the arm varies at random from float to
 * float, and its mispredicted branches cost more than all the tests. */
static uint64_t to_decimal(int q, uint64_t c, const uint64_t *g, int *e)
{
    uint64_t odd = c & 1, cb = c << 2, cbl = cb - 2;
    int k = (int)((q * 661971961083LL) >> 41);
    if (c == C_MIN && q > -1074)        /* the lower neighbour is closer */
        cbl = cb - 1, k = (int)((q * 661971961083LL - 274743187321LL) >> 41);
    int h = q + (int)((-k * 913124641741LL) >> 38) + 2;
    g += 2 * (k + 324);
    uint64_t vb = rop(g, cb << h), vbl = rop(g, cbl << h) + odd,
             vbr = rop(g, (cb + 2) << h) - odd;
    uint64_t s = vb >> 2, s10 = s / 10, mid = (2 * s + 1) << 1;
    int upin = vbl <= s10 * 40, wpin = (s10 + 1) * 40 <= vbr;
    int uin = vbl <= s << 2, win = (s + 1) << 2 <= vbr;
    int up = (win & !uin) | ((uin == win) & ((vb > mid) | ((vb == mid)
                                                           & (int)(s & 1))));
    uint64_t fewer = -(uint64_t)(upin ^ wpin);
    *e = k + (upin ^ wpin);
    return (fewer & (s10 + (uint64_t)wpin)) | (~fewer & (s + (uint64_t)up));
}

/* x's text at p, as repr spells it (json when set, for nan and inf);
 * writes at most 24 bytes and returns the text's end */
static char *put(char *p, double x, int json, const uint64_t *g)
{
    uint64_t bits, c, f;
    memcpy(&bits, &x, 8);
    int n = (int)(bits >> 63), e = 0, bq = (int)(bits >> 52) & 0x7ff, i, j;
    char s[48], z[80];                  /* the text, and f's digits */
    c = bits & (C_MIN - 1), s[0] = '-';
    if (bq == 0x7ff || (bq == 0 && c == 0)) {   /* nan, inf and zero */
        const char *t = !bq ? "0.0" : c ? json ? "NaN" : "nan"
                                        : json ? "Infinity" : "inf";
        n = bq && c ? 0 : n, *p = '-';
        return p + n + strlen(strcpy(p + n, t));
    }
    int q = bq ? bq - 1075 : -1074;     /* x = c 2^q */
    c |= bq ? C_MIN : 0;
    f = -53 < q && q < 0 && !(c << (64 + q)) ? c >> -q  /* an integer */
                                              : to_decimal(q, c, g, &e);
    /* f's 17 digits in z[24..41), amid zeros; its own in z[i..j), its
     * digit count j or j + 1 from j = floor(log10 2^bits), bits = f's */
    uint32_t hi = (uint32_t)(f / 100000000), lo = (uint32_t)(f % 100000000);
    memset(z, '0', sizeof z);
    for (i = 0; i < 8; i += 2, hi /= 100, lo /= 100) {
        memcpy(z + 31 - i, DIGITS2 + hi % 100 * 2, 2);
        memcpy(z + 39 - i, DIGITS2 + lo % 100 * 2, 2);
    }
    z[24] = (char)('0' + hi), j = (64 - __builtin_clzll(f)) * 1233 >> 12;
    i = 41 - j - (f >= POW10[j]);
    for (j = 41; z[j - 1] == '0'; j--)
        ;
    int decpt = 41 - i + e, x10 = decpt > 0 ? decpt - 1 : 1 - decpt;
    if (-4 < decpt && decpt <= 16) {    /* 0.000ddd, dd.ddd and ddd00.0 */
        int ilen = decpt > 1 ? decpt : 1, flen = j - i - decpt;
        memcpy(s + n, z + i + decpt - ilen, 16);
        s[n += ilen] = '.';
        memcpy(s + n + 1, z + i + decpt, 24);
        n += 1 + (flen > 1 ? flen : 1);
    } else {                            /* d.ddde-XX */
        s[n] = z[i], s[n + 1] = '.';
        memcpy(s + n + 2, z + i + 1, 16);
        n += j - i > 1 ? j - i + 1 : 1;
        s[n++] = 'e', s[n++] = decpt > 0 ? '+' : '-';
        if (x10 >= 100)
            s[n++] = (char)('0' + x10 / 100);
        memcpy(s + n, DIGITS2 + x10 % 100 * 2, 2), n += 2;
    }
    return (char *)memcpy(p, s, 24) + n;
}

/* json's list at depth of a[0..n), or with m >= 0 of n rows of m values */
static char *json_list(char *p, const double *a, int64_t n, int64_t m,
                       int depth, const uint64_t *g)
{
    if (n == 0)
        return memcpy(p, "[]", 2), p + 2;
    *p++ = '[';
    for (int64_t i = 0; i < n; i++) {
        *p = '\n';
        if (m < 0 && depth < 8)     /* the float's 24 bytes overwrite */
            memcpy(p + 1, "                ", 16);     /* the excess */
        else
            memset(p + 1, ' ', 2 * depth + 2);
        p += 2 * depth + 3;
        p = m < 0 ? put(p, a[i], 1, g)
                  : json_list(p, a + i * m, m, -1, depth + 1, g);
        *p++ = ',';
    }
    p[-1] = '\n';
    p = (char *)memset(p, ' ', 2 * depth) + 2 * depth;
    *p = ']';
    return p + 1;
}

int64_t write_floats(const double *a, int64_t n, int64_t m, int32_t depth,
                     const uint64_t *g, char *out)
{
    char *p = out;
    if (depth >= 0)
        return json_list(out, a, n, m, depth, g) - out;
    for (int64_t i = 0; i < n; i++, p -= m > 0, *p++ = '\n')
        for (int64_t j = 0; j < m; j++, *p++ = ',')
            p = put(p, *a++, 0, g);
    return p - out;
}

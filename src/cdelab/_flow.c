/* The fused stepping loops of cdelab.integrators and the respelling pass of
 * cdelab.serialize, compiled.
 *
 * flow_rk4 and flow_midpoint do the same double operations, in the same
 * order, as integrators._rk4 and integrators._midpoint, so built without
 * floating-point contraction (-ffp-contract=off: no fused multiply-add)
 * they give the same bits.  Each runs n steps from s[0..3] and writes state
 * k to s[4k..4k+3]; s holds 4 (n + 1) doubles.  Each returns 0, or the
 * 1-based step that failed, with its cause in *cause:
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

static int in_range(const double *x, double lo, double hi)
{
    return lo <= x[0] && x[0] <= hi && lo <= x[1] && x[1] <= hi
        && lo <= x[2] && x[2] <= hi && lo <= x[3] && x[3] <= hi;
}

int64_t flow_rk4(double *s, int64_t n, double dt, double limit, int32_t *cause)
{
    double h = 0.5 * dt, c = dt / 6.0, lo = -limit;
    double u = s[0], v = s[1], a = s[2], b = s[3];
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
        double *out = s + 4 * (i + 1);
        out[0] = u, out[1] = v, out[2] = a, out[3] = b;
        if (!in_range(out, lo, limit)) {
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
    double h = 0.5 * dt, tol2 = newton_tol * newton_tol, lo = -limit;
    double u = s[0], v = s[1], a = s[2], b = s[3];
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
        double *out = s + 4 * (i + 1);
        out[0] = u, out[1] = v, out[2] = a, out[3] = b;
        if (!in_range(out, lo, limit)) {
            *cause = OVERFLOW;
            return i + 1;
        }
    }
    return 0;
}

/* respell rewrites orjson's text of a document, in[0..n), into json's, writes
 * it to out and returns its length.  orjson's printer writes repr's shortest
 * round-trip digits, but spells three bands otherwise:
 *
 *   1e-9 <= |x| < 1e-5   1.5e-6      for repr's 1.5e-06
 *   1e-5 <= |x| < 1e-4   0.0000123   for repr's 1.23e-05
 *   |x| >= 1e16          1e16        for repr's 1e+16
 *
 * and nan and inf as null, which the caller keeps out.  String literals are
 * copied unchanged, escapes included.  With csv set, in is a table
 * [[a,b],[c,d]] and out its lines a,b\nc,d\n.  respell jumps from one
 * possible edit to the next: it keeps the next 'e', the next ".0000" and the
 * next quote (in csv the next ']'), finds each again only once it is passed
 * (a string skipped passes those inside it), and copies the unchanged bytes
 * between two edits in one memcpy.  out holds n + n / 4 + 8 bytes: only the
 * first and third bands grow, by one byte, and in 1e-7, or 1e16, that is one
 * byte in five.
 */
#define COPY_TO(j) (memcpy(out + m, in + done, (j) - done), \
                    m += (j) - done, done = (j))
#define DIGIT(c) ('0' <= (c) && (c) <= '9')

/* the first c in in[from..n), or n */
static int64_t next_byte(const char *in, int64_t from, int64_t n, int c)
{
    const char *p = memchr(in + from, c, n - from);
    return p ? p - in : n;
}

typedef char bytes16 __attribute__((vector_size(16)));   /* GNU C */

/* the first ".0000" in in[from..n), or n.  It tests 16 positions at a time
 * in vector registers, about 0.13 ns a byte; glibc 2.36's memmem took about
 * 0.6 ns a byte (x86-64), as long as a byte loop */
static int64_t next_zeros(const char *in, int64_t from, int64_t n)
{
    int64_t i = from;
    for (; i + 20 <= n; i += 16) {
        bytes16 c0, c1, c2, c3, c4;
        uint64_t any[2];
        memcpy(&c0, in + i, 16), memcpy(&c1, in + i + 1, 16);
        memcpy(&c2, in + i + 2, 16), memcpy(&c3, in + i + 3, 16);
        memcpy(&c4, in + i + 4, 16);
        bytes16 hit = (c0 == '.') & (c1 == '0') & (c2 == '0') & (c3 == '0')
                      & (c4 == '0');
        memcpy(any, &hit, 16);
        if (any[0] | any[1])
            break;
    }
    for (; i + 5 <= n; i++)
        if (memcmp(in + i, ".0000", 5) == 0)
            return i;
    return n;
}

int64_t respell(const char *in, int64_t n, char *out, int32_t csv)
{
    /* in[done..i) is to copy, and csv skips the leading [[; e, z and s are
     * the next 'e', ".0000" and stop byte at or after i, or n */
    int64_t m = 0, done = csv ? 2 : 0, i = done, e = -1, z = -1, s = -1;
    int stop = csv ? ']' : '"';
    for (;;) {
        if (e < i)
            e = next_byte(in, i, n, 'e');
        if (z < i)
            z = next_zeros(in, i, n);
        if (s < i)
            s = next_byte(in, i, n, stop);
        i = e < z ? e : z;
        i = s < i ? s : i;
        if (i == n)
            break;
        if (i == s && !csv) {                   /* a string */
            for (i++; i < n && in[i] != '"'; i++)
                i += in[i] == '\\';
            i++;
        } else if (i == s) {                    /* a row's end is a line's */
            COPY_TO(i);
            out[m++] = '\n';
            if (in[i + 1] != ',')               /* the table's closing ] */
                return m;
            done = i += 3;                      /* ],[ */
        } else if (i == e) {
            if (i + 1 < n && DIGIT(in[i + 1])) {        /* e16 -> e+16 */
                COPY_TO(i + 1);
                out[m++] = '+';
            } else if (i + 2 < n && in[i + 1] == '-'    /* e-7 -> e-07 */
                       && (i + 3 == n || !DIGIT(in[i + 3]))) {
                COPY_TO(i + 2);
                out[m++] = '0';
            }
            i++;
        } else if (i >= 1 && in[i - 1] == '0' && n - i > 5  /* 0.0000123 */
                   && DIGIT(in[i + 5]) && (i == 1 || !DIGIT(in[i - 2]))) {
            COPY_TO(i - 1);                     /* -> 1.23e-05 */
            out[m++] = in[i + 5];
            for (i += 6, done = i; i < n && DIGIT(in[i]); i++)
                ;
            if (i > done)
                out[m++] = '.';
            COPY_TO(i);
            memcpy(out + m, "e-05", 4), m += 4;
        } else
            i++;
    }
    COPY_TO(n);
    return m;
}

/* Row kernels of graphchoice's batched engine: one call runs a block of steps
 * for every row (seed) of a batch. A second entry, gc_rk4_window, runs one
 * RK4 window of the rest-point solver, and a third, gc_format_rows, writes
 * the rows of trajectory.csv (see the end of the file).
 *
 *     cc -O2 -ffp-contract=off -shared -fPIC -o engine.so _engine.c -lm
 *
 * graphchoice._engine builds and loads this file at the first engine call,
 * RK4 window or CSV write; walk._run_engine refills the random blocks, passes the
 * schedule columns (see gc_run_block) and assembles the results.
 *
 * State layout, shared with the numpy loop in walk._numpy_block: S (int64
 * visit counts) and mu_hat are (R, m+1) arrays whose column m stays zero;
 * ids/uniform are the (m, d_max) neighbour slots of Graph.neighbor_slots,
 * padded with the sentinel id m and probability 0. U and Z hold one
 * selection uniform and one reward normal per row and step of the block.
 *
 * Arithmetic parity with the numpy loop, operation for operation; a change
 * to either side must change the other:
 *  - log and exp come from libm. numpy's SIMD exp and log may differ from
 *    them in the last bit, so a node can differ only where u lands within
 *    an ulp of a cumsum boundary.
 *  - -ffp-contract=off: no fused multiply-add, every operation rounds once.
 *  - Row sums follow numpy's pairwise order (row_sum).
 *  - The cumsum is sequential and sel = #(u >= cum); a u at or beyond the
 *    last cumsum takes the last slot with positive probability.
 *  - Reinforced: p = log(max(mu_hat * S, 0)) * alpha, minus the row max,
 *    exp; a row whose max is -inf is 1 on its real slots instead. Then
 *    p = p * ((1 - eps) / rowsum) + eps * unif.
 *  - SA: p = exp(-max(drop, 0) / T) * unif with drop = mu_hat[cur] -
 *    mu_hat[slot]; the own slot is zeroed, then set to 1 - rowsum.
 *  - Greedy: p = eps * unif, plus (1 - eps) on the argmax of mu_hat over
 *    the real slots, ties going to the lowest slot.
 *  - Running mean: obs = mu + noise_std * z, est + (obs - est) / S with the
 *    new count S as a double.
 *  - libm is not called where its result is fixed: log(0) * alpha = -inf
 *    (alpha > 0), exp(-inf) = 0 and exp(.) * 0 = 0 on SA's padding slots.
 *
 * gc_rk4_window follows the numpy reference analysis._rk4_window and the
 * right-hand sides analysis.replicator_rhs / scaled_rhs, with the same
 * flags, the same duty to change both sides together, and these rules:
 *  - f = pow(mu * z, alpha) from libm; phi = f * (A f) / z, A f summed in
 *    column order as adj * f, so an infinite f gives NaN as in numpy.
 *  - Replicator: k = z * (phi - z.phi), z.phi summed in order. Scaled:
 *    v = z * phi, k = v / rowsum(v) - z, rowsum pairwise as above.
 *  - A stage point with a component outside (0, inf), NaN included, is
 *    rejected as analysis._as_interior rejects it, and so is a new iterate
 *    that is not finite and positive: the step is halved, and a step below
 *    dt_min (analysis._DT_MIN, passed at each call) fails.
 *  - Stages are z + (0.5 * h) * k1, z + (0.5 * h) * k2 and z + h * k3; the
 *    update is z + (h / 6) * (((k1 + 2 k2) + 2 k3) + k4).
 *  - The new iterate is divided by its rowsum when |sum - 1| > 1e-12.
 *  numpy's power may differ from libm's pow in the last bit, and its dot
 *  and matmul may add in another order (BLAS), so the two loops agree to
 *  the ulp, not bit for bit.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { REINFORCED = 0, SA = 1, GREEDY = 2 };

/* numpy's pairwise summation of a contiguous row: sequential below 8
 * elements, eight accumulators up to 128, recursive halving above. */
static double row_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3],
               r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return row_sum(a, n2) + row_sum(a + n2, n - n2);
}

static void reinforced_row(double *p, const int64_t *nb, const double *un,
                           const int64_t *S, const double *mu_hat, int64_t d,
                           double alpha, double eps)
{
    double mx = -INFINITY;
    for (int64_t j = 0; j < d; j++) {
        /* log(max(w, 0)) * alpha is -inf for w <= 0 (padding, unvisited
         * slots, nonpositive estimates); alpha > 0, so libm is skipped */
        double w = mu_hat[nb[j]] * (double)S[nb[j]];
        w = w > 0.0 ? log(w) * alpha : -INFINITY;
        p[j] = w;
        if (w > mx)
            mx = w;
    }
    if (mx == -INFINITY) {  /* no visited neighbour yet: uniform on N(cur) */
        for (int64_t j = 0; j < d; j++)
            p[j] = un[j] > 0.0 ? 1.0 : 0.0;
    } else {  /* exp(-inf - mx) == 0 */
        for (int64_t j = 0; j < d; j++)
            p[j] = p[j] == -INFINITY ? 0.0 : exp(p[j] - mx);
    }
    double scale = (1.0 - eps) / row_sum(p, d);
    for (int64_t j = 0; j < d; j++)
        p[j] = p[j] * scale + eps * un[j];
}

static void sa_row(double *p, const int64_t *nb, const double *un,
                   const double *mu_hat, int64_t d, int64_t cur, double temp)
{
    double mu_cur = mu_hat[cur];
    int64_t own = 0;
    for (int64_t j = 0; j < d; j++) {
        double drop = mu_cur - mu_hat[nb[j]];  /* padding: exp(.) * 0 == 0 */
        p[j] = un[j] > 0.0 ? exp(-(drop > 0.0 ? drop : 0.0) / temp) * un[j] : 0.0;
        if (nb[j] == cur)
            own = j;
    }
    p[own] = 0.0;
    p[own] = 1.0 - row_sum(p, d);
}

static void greedy_row(double *p, const int64_t *nb, const double *un,
                       const double *mu_hat, int64_t d, double eps)
{
    int64_t best = 0;
    double top = -INFINITY;
    for (int64_t j = 0; j < d; j++) {
        double w = un[j] > 0.0 ? mu_hat[nb[j]] : -INFINITY;
        if (w > top || j == 0) {
            top = w;
            best = j;
        }
        p[j] = eps * un[j];
    }
    p[best] += 1.0 - eps;
}

static int64_t sample_slot(const double *p, int64_t d, double u)
{
    double cum = 0.0;
    int64_t sel = 0;
    for (int64_t j = 0; j < d; j++) {
        cum += p[j];
        sel += u >= cum;
    }
    if (sel >= d) {  /* u beyond a short final cumsum */
        sel = d - 1;
        while (sel > 0 && !(p[sel] > 0.0))
            sel--;
    }
    return sel;
}

/* Steps t0 <= t < t1 of an n_steps run for all R rows. eps, alpha and temp
 * are the schedule columns that step t reads at index t, rows n = t of the
 * walk's recorded columns and n = t + 1 of the baselines': REINFORCED reads
 * alpha[t] and eps[t], SA temp[t] and GREEDY eps[t]. U and Z are (R, ublock)
 * with column t - t0 for step t. cur (R) holds each row's current node and
 * is updated. After step t, n = t + 1; where n % stride == 0 or
 * n == n_steps, the node and the S row go to snapshot j = ceil(n / stride)
 * of the (R, n_snaps) node buffer and the (R, n_snaps, m) count buffer.
 * work holds d_max doubles. */
void gc_run_block(int32_t kind, int64_t R, int64_t m, int64_t d,
                  const int64_t *ids, const double *uniform,
                  const double *mu, double noise_std,
                  const double *eps, const double *alpha, const double *temp,
                  int64_t t0, int64_t t1, int64_t n_steps, int64_t stride,
                  const double *U, const double *Z, int64_t ublock,
                  int64_t *cur, int64_t *S, double *mu_hat,
                  int64_t n_snaps, int64_t *snap_node, int64_t *snap_S,
                  double *work)
{
    for (int64_t r = 0; r < R; r++) {
        int64_t *Sr = S + r * (m + 1);
        double *Mr = mu_hat + r * (m + 1);
        const double *Ur = U + r * ublock, *Zr = Z + r * ublock;
        int64_t c = cur[r];
        for (int64_t t = t0; t < t1; t++) {
            const int64_t *nb = ids + c * d;
            const double *un = uniform + c * d;
            if (kind == REINFORCED)
                reinforced_row(work, nb, un, Sr, Mr, d, alpha[t], eps[t]);
            else if (kind == SA)
                sa_row(work, nb, un, Mr, d, c, temp[t]);
            else
                greedy_row(work, nb, un, Mr, d, eps[t]);
            c = nb[sample_slot(work, d, Ur[t - t0])];

            Sr[c] += 1;
            double obs = mu[c] + noise_std * Zr[t - t0];
            double est = Mr[c];
            Mr[c] = est + (obs - est) / (double)Sr[c];

            int64_t n = t + 1;
            if (n % stride == 0 || n == n_steps) {
                int64_t k = r * n_snaps + (n + stride - 1) / stride;
                snap_node[k] = c;
                memcpy(snap_S + k * m, Sr, (size_t)m * sizeof *Sr);
            }
        }
        cur[r] = c;
    }
}

enum { REPLICATOR = 0, SCALED = 1 };

/* The right-hand side at z into k, or 0 where z is not interior. f holds
 * m doubles. */
static int ode_rhs(int32_t dyn, int64_t m, const uint8_t *adj, const double *mu,
                   double alpha, const double *z, double *k, double *f)
{
    for (int64_t i = 0; i < m; i++)
        if (!(z[i] > 0.0 && z[i] < INFINITY))
            return 0;
    for (int64_t i = 0; i < m; i++)
        f[i] = pow(mu[i] * z[i], alpha);
    for (int64_t i = 0; i < m; i++) {
        double af = 0.0;
        for (int64_t j = 0; j < m; j++)
            af += (double)adj[i * m + j] * f[j];
        k[i] = f[i] * af / z[i];
    }
    if (dyn == REPLICATOR) {
        double mean = 0.0;
        for (int64_t i = 0; i < m; i++)
            mean += z[i] * k[i];
        for (int64_t i = 0; i < m; i++)
            k[i] = z[i] * (k[i] - mean);
    } else {
        for (int64_t i = 0; i < m; i++)
            k[i] = z[i] * k[i];
        double s = row_sum(k, m);
        for (int64_t i = 0; i < m; i++)
            k[i] = k[i] / s - z[i];
    }
    return 1;
}

/* steps RK4 steps of dynamics dyn from z with step *h: the (steps + 1, m)
 * path, path[0] = z, and the final step in *h. adj is the (m, m) 0/1
 * adjacency; work holds 6 m doubles. Returns the number of step halvings,
 * or -1 where the step fell below dt_min. */
int64_t gc_rk4_window(int32_t dyn, int64_t m, const uint8_t *adj,
                      const double *mu, double alpha, const double *z,
                      double *h, int64_t steps, double dt_min, double *path,
                      double *work)
{
    double *k1 = work, *k2 = work + m, *k3 = work + 2 * m, *k4 = work + 3 * m,
           *y = work + 4 * m, *f = work + 5 * m;
    double step = *h;
    int64_t halvings = 0;
    memcpy(path, z, (size_t)m * sizeof *z);
    for (int64_t s = 0; s < steps; s++) {
        const double *zs = path + s * m;
        double *zn = path + (s + 1) * m;
        for (;;) {
            int ok = ode_rhs(dyn, m, adj, mu, alpha, zs, k1, f);
            if (ok) {
                for (int64_t i = 0; i < m; i++)
                    y[i] = zs[i] + (0.5 * step) * k1[i];
                ok = ode_rhs(dyn, m, adj, mu, alpha, y, k2, f);
            }
            if (ok) {
                for (int64_t i = 0; i < m; i++)
                    y[i] = zs[i] + (0.5 * step) * k2[i];
                ok = ode_rhs(dyn, m, adj, mu, alpha, y, k3, f);
            }
            if (ok) {
                for (int64_t i = 0; i < m; i++)
                    y[i] = zs[i] + step * k3[i];
                ok = ode_rhs(dyn, m, adj, mu, alpha, y, k4, f);
            }
            for (int64_t i = 0; ok && i < m; i++) {
                zn[i] = zs[i] + (step / 6.0) * (((k1[i] + 2.0 * k2[i])
                                                 + 2.0 * k3[i]) + k4[i]);
                ok = zn[i] > 0.0 && zn[i] < INFINITY;
            }
            if (ok)
                break;
            step *= 0.5;
            halvings++;
            if (step < dt_min)
                return -1;
        }
        double sum = row_sum(zn, m);
        if (fabs(sum - 1.0) > 1e-12)
            for (int64_t i = 0; i < m; i++)
                zn[i] = zn[i] / sum;
    }
    *h = step;
    return halvings;
}

/* The CSV rows of Trajectory.to_csv, byte for byte as the f-string writer
 * walk._csv_rows writes them: "n,node+1,repr(eps),repr(alpha),repr(x_1),
 * ...,repr(x_m)\n". repr_double matches CPython's repr (mode-0 dtoa): the
 * shortest digit string that reads back as v under round-half-even, the
 * one closest to v among those, an exact tie going to the even last digit;
 * positional notation for decimal exponents -4..15 with ".0" on integral
 * values, "1e-05" style below. It works in exact integer arithmetic on its
 * range, 2^-40 <= |v| < 2^53 (which holds [1e-12, 9e15]) and +-0, and
 * refuses every other value, NaN and infinities among them. */

typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {  /* 5^0 .. 5^27, the last below 2^63 */
    1ull, 5ull, 25ull, 125ull, 625ull, 3125ull, 15625ull, 78125ull,
    390625ull, 1953125ull, 9765625ull, 48828125ull, 244140625ull,
    1220703125ull, 6103515625ull, 30517578125ull, 152587890625ull,
    762939453125ull, 3814697265625ull, 19073486328125ull, 95367431640625ull,
    476837158203125ull, 2384185791015625ull, 11920928955078125ull,
    59604644775390625ull, 298023223876953125ull, 1490116119384765625ull,
    7450580596923828125ull};

static char *put_int(char *p, int64_t v)
{
    char d[20];
    int nd = 0;
    uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    do {
        d[nd++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0)
        *p++ = '-';
    while (nd)
        *p++ = d[--nd];
    return p;
}

/* repr(v) at p; the end of the text, or NULL where v is out of range. */
static char *repr_double(char *p, double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    int be = (int)(bits >> 52) & 0x7ff;
    uint64_t frac = bits & ((1ull << 52) - 1);
    if (be == 0 && frac == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int e2 = be - 1075;  /* |v| = m2 * 2^e2 */
    if (e2 < -92 || e2 > 0)
        return NULL;
    uint64_t m2 = frac | (1ull << 52);

    /* E = floor(log10(2^(e2 + 52))) <= log10|v| < E + 1, so b = |v| 10^K
     * with K = 16 - E lies in [1e16, 2e17): 17 or 18 digits. With 1 <= K
     * <= 29, 4 m2 5^K < 2^123, and B = 4 m2 5^K = b 2^sh exactly. */
    int t = (e2 + 52) * 78913;  /* 78913 / 2^18 = log10(2) to 7 digits */
    int E = t >= 0 ? t >> 18 : -(((-t - 1) >> 18) + 1);
    int K = 16 - E, sh = 2 - e2 - K;  /* 1 <= sh <= 65 */
    u128 p5 = K < 28 ? (u128)POW5[K] : (u128)POW5[27] * POW5[K - 27];
    u128 B = (u128)(m2 << 2) * p5;
    /* The numbers that read back as v lie within half an ulp (2 p5 in
     * B's units) above it and below it, a quarter below a power of two:
     * the integers below+1 .. top at b's scale. An end itself reads back
     * as v for an even m2, but that never matters in this range: an end
     * is a whole number only where 2^(1 - e2) divides 10^K, that is at
     * e2 = 0, where it is b +- 5, and the loop below drops that digit. */
    u128 A = B - (frac == 0 && be > 1 ? p5 : p5 << 1), C = B + (p5 << 1);
    u128 mask = ((u128)1 << sh) - 1;
    uint64_t b = (uint64_t)(B >> sh), below = (uint64_t)(A >> sh),
             top = (uint64_t)(C >> sh);

    /* the most trailing digits j that a number in range can drop */
    uint64_t pow10 = 1;
    int j = 0;
    while (top / 10 > below / 10) {
        top /= 10;
        below /= 10;
        pow10 *= 10;
        j++;
    }
    /* n or n + 1 times 10^j, whichever in range is closer to b */
    uint64_t n = b / pow10, r = b - n * pow10;
    if (n == below) {
        n++;
    } else if (n < top) {
        u128 f = B & mask, half = (u128)1 << (sh - 1);
        int c = 2 * r + 1 < pow10 ? -1
              : 2 * r > pow10 ? 1
              : 2 * r == pow10 ? f != 0
              : (f > half) - (f < half);
        n += c > 0 || (c == 0 && (n & 1));
    }

    char d[20];
    int nd = 0;
    for (; n; n /= 10)
        d[nd++] = (char)('0' + n % 10);
    int dp = nd + j - K;  /* |v| = 0.DIGITS * 10^dp, dp <= 16 in range */
    if (dp < -3) {  /* below 1e-04: "d.ddde-XX" */
        *p++ = d[--nd];
        if (nd)
            *p++ = '.';
        while (nd)
            *p++ = d[--nd];
        *p++ = 'e';
        *p++ = '-';
        if (1 - dp < 10)
            *p++ = '0';
        return put_int(p, 1 - dp);
    }
    if (dp <= 0) {
        *p++ = '0';
        *p++ = '.';
        for (; dp < 0; dp++)
            *p++ = '0';
    }
    for (; nd; dp--) {
        *p++ = d[--nd];
        if (dp == 1 && nd)
            *p++ = '.';
    }
    if (dp >= 0) {  /* integral: zeros to the point, then ".0" */
        for (; dp > 0; dp--)
            *p++ = '0';
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p;
}

/* n_rows CSV rows of an (n_rows, m) x block and its columns into out,
 * which holds cap bytes. Returns the bytes written, or -1 where a float is
 * out of repr_double's range or cap is below n_rows * (44 + 24 (m + 2)),
 * the longest rows: two 20-digit ints, m + 2 floats of up to 23 bytes, the
 * commas and the newline. */
int64_t gc_format_rows(int64_t n_rows, int64_t m, const int64_t *ns,
                       const int64_t *nodes, const double *eps,
                       const double *alpha, const double *xs, char *out,
                       int64_t cap)
{
    if (cap < n_rows * (44 + 24 * (m + 2)))
        return -1;
    char *p = out;
    for (int64_t r = 0; r < n_rows; r++) {
        p = put_int(p, ns[r]);
        *p++ = ',';
        p = put_int(p, nodes[r] + 1);
        *p++ = ',';
        if (!(p = repr_double(p, eps[r])))
            return -1;
        *p++ = ',';
        if (!(p = repr_double(p, alpha[r])))
            return -1;
        for (int64_t i = 0; i < m; i++) {
            *p++ = ',';
            if (!(p = repr_double(p, xs[r * m + i])))
                return -1;
        }
        *p++ = '\n';
    }
    return p - out;
}

/* Batched MLP kernels, vectorised across candidate lanes.
 *
 * Layout contract (see mlp.ml): activation and delta planes are
 * feature-major with row stride equal to the current batch —
 * plane[j * batch + lane] — so the lanes of one neuron form a contiguous
 * strip. Each lane's operation sequence is exactly the scalar OCaml
 * kernel's: bias first, then inputs in ascending order (one multiply and
 * one add per input, never contracted into an FMA), ReLU as the same
 * compare, and reverse-sweep contributions in ascending output order with
 * zero-delta outputs leaving the accumulator untouched. Vectorisation
 * only packs independent lanes into one register, so every lane's result
 * is bit-identical to the OCaml path. The build flags (dune: -O3
 * -ffp-contract=off -fno-trapping-math) keep IEEE semantics exact while
 * letting GCC if-convert the zero-delta guard into a lane blend.
 *
 * The parameter-gradient sweep (felix_mlp_param_backward_batch) is the
 * one place where lanes meet: a weight cell sums its active lanes in
 * ascending lane order, one add at a time, exactly as the scalar example
 * loop does. That sum is vectorised across inputs instead of lanes: each
 * layer's input activations are transposed once into a caller-owned
 * lane-major plane, prevT[lane * n_in + i], and a weight row is updated
 * by blocked AXPYs over i, adding lane after lane. The same per-cell
 * order holds, so the gradient is bit-identical to the OCaml path too.
 *
 * These functions allocate nothing, keep no state of their own (all
 * scratch belongs to the caller's workspace, so concurrent callers on
 * separate workspaces are safe) and never call back into the runtime, so
 * they are declared [@@noalloc] on the OCaml side.
 */

#include <caml/mlvalues.h>

/* x86-64 baseline is SSE2 (2 lanes per vector); AVX2 and AVX-512 widen
 * that to 4 and 8. target_clones compiles each kernel once per ISA and
 * picks the widest one the running CPU supports at load time (glibc
 * ifunc), so the same binary is correct everywhere. Lane width never
 * changes per-lane IEEE results. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__gnu_linux__)
#define LANE_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define LANE_CLONES
#endif

#if defined(__GNUC__)
#define RESTRICT __restrict__
#else
#define RESTRICT
#endif

/* One dense layer forward: out[o*batch+l] = relu?(bias_o + sum_i w_oi * x[i*batch+l]).
 * Blocked over two outputs (shared activation loads) and four inputs
 * (fewer accumulator round-trips); each (lane, output) accumulator still
 * sums bias first, then inputs in ascending order one add at a time, so
 * the per-lane addition sequence is the scalar one. */
LANE_CLONES static void fwd_two(const double *RESTRICT p, long off, long o0, long n_in,
                    long n_out, long batch, const double *RESTRICT x,
                    double *RESTRICT out, int relu)
{
  const long bias = off + n_in * n_out;
  const double b0 = p[bias + o0], b1 = p[bias + o0 + 1];
  const double *RESTRICT w0 = p + off + o0 * n_in;
  const double *RESTRICT w1 = w0 + n_in;
  double *RESTRICT acc0 = out + o0 * batch;
  double *RESTRICT acc1 = acc0 + batch;
  for (long l = 0; l < batch; l++) acc0[l] = b0;
  for (long l = 0; l < batch; l++) acc1[l] = b1;
  long i = 0;
  for (; i + 3 < n_in; i += 4) {
    const double w00 = w0[i], w01 = w0[i + 1], w02 = w0[i + 2], w03 = w0[i + 3];
    const double w10 = w1[i], w11 = w1[i + 1], w12 = w1[i + 2], w13 = w1[i + 3];
    const double *RESTRICT x0 = x + i * batch;
    const double *RESTRICT x1 = x0 + batch;
    const double *RESTRICT x2 = x1 + batch;
    const double *RESTRICT x3 = x2 + batch;
    for (long l = 0; l < batch; l++) {
      const double a0 = x0[l], a1 = x1[l], a2 = x2[l], a3 = x3[l];
      double v0 = acc0[l];
      v0 = v0 + w00 * a0;
      v0 = v0 + w01 * a1;
      v0 = v0 + w02 * a2;
      v0 = v0 + w03 * a3;
      acc0[l] = v0;
      double v1 = acc1[l];
      v1 = v1 + w10 * a0;
      v1 = v1 + w11 * a1;
      v1 = v1 + w12 * a2;
      v1 = v1 + w13 * a3;
      acc1[l] = v1;
    }
  }
  for (; i < n_in; i++) {
    const double wi0 = w0[i], wi1 = w1[i];
    const double *RESTRICT xi = x + i * batch;
    for (long l = 0; l < batch; l++) {
      const double a = xi[l];
      acc0[l] = acc0[l] + wi0 * a;
      acc1[l] = acc1[l] + wi1 * a;
    }
  }
  if (relu) {
    for (long l = 0; l < batch; l++) acc0[l] = (0.0 >= acc0[l]) ? 0.0 : acc0[l];
    for (long l = 0; l < batch; l++) acc1[l] = (0.0 >= acc1[l]) ? 0.0 : acc1[l];
  }
}

LANE_CLONES static void fwd_one(const double *RESTRICT p, long off, long o, long n_in,
                    long n_out, long batch, const double *RESTRICT x,
                    double *RESTRICT out, int relu)
{
  const double b = p[off + n_in * n_out + o];
  const double *RESTRICT w = p + off + o * n_in;
  double *RESTRICT acc = out + o * batch;
  for (long l = 0; l < batch; l++) acc[l] = b;
  long i = 0;
  for (; i + 3 < n_in; i += 4) {
    const double w0 = w[i], w1 = w[i + 1], w2 = w[i + 2], w3 = w[i + 3];
    const double *RESTRICT x0 = x + i * batch;
    const double *RESTRICT x1 = x0 + batch;
    const double *RESTRICT x2 = x1 + batch;
    const double *RESTRICT x3 = x2 + batch;
    for (long l = 0; l < batch; l++) {
      double v = acc[l];
      v = v + w0 * x0[l];
      v = v + w1 * x1[l];
      v = v + w2 * x2[l];
      v = v + w3 * x3[l];
      acc[l] = v;
    }
  }
  for (; i < n_in; i++) {
    const double wi = w[i];
    const double *RESTRICT xi = x + i * batch;
    for (long l = 0; l < batch; l++) acc[l] = acc[l] + wi * xi[l];
  }
  if (relu)
    for (long l = 0; l < batch; l++) acc[l] = (0.0 >= acc[l]) ? 0.0 : acc[l];
}

LANE_CLONES static void fwd_layer(const double *RESTRICT p, long off, long n_in, long n_out,
                      long batch, const double *RESTRICT x, double *RESTRICT out,
                      int relu)
{
  long o = 0;
  for (; o + 1 < n_out; o += 2) fwd_two(p, off, o, n_in, n_out, batch, x, out, relu);
  for (; o < n_out; o++) fwd_one(p, off, o, n_in, n_out, batch, x, out, relu);
}

/* One dense layer of the reverse sweep. [cur] (the incoming deltas) is
 * masked in place by the ReLU activation pattern; a lane whose delta is
 * zero must leave its d_in cells untouched (adding 0.0 could change a
 * -0.0 cell or propagate a non-finite weight), hence the blend. */
LANE_CLONES static int bwd_mask(long o, long n_out, long batch, double *RESTRICT cur,
                    const double *RESTRICT nxt, int relu)
{
  double *RESTRICT d = cur + o * batch;
  int any = 0;
  if (relu) {
    const double *RESTRICT a = nxt + o * batch;
    for (long l = 0; l < batch; l++) {
      const double dv = (a[l] <= 0.0) ? 0.0 : d[l];
      d[l] = dv;
      any |= (dv != 0.0);
    }
  } else {
    for (long l = 0; l < batch; l++) any |= (d[l] != 0.0);
  }
  (void)n_out;
  return any;
}

LANE_CLONES static void bwd_layer(const double *RESTRICT p, long off, long n_in, long n_out,
                      long batch, double *RESTRICT cur, const double *RESTRICT nxt,
                      double *RESTRICT d_in, int relu)
{
  for (long j = 0; j < batch * n_in; j++) d_in[j] = 0.0;
  /* Outputs active on some lane are compressed (ascending, in chunks of
   * 64 on the stack) and swept four per d_in round-trip; a cell's
   * contributions still land in ascending output order, as four
   * sequential blends. Inactive outputs cost no sweep at all. */
  long act[64];
  for (long o0 = 0; o0 < n_out; o0 += 64) {
    const long o1 = (o0 + 64 < n_out) ? o0 + 64 : n_out;
    long na = 0;
    for (long o = o0; o < o1; o++)
      if (bwd_mask(o, n_out, batch, cur, nxt, relu)) act[na++] = o;
    long k = 0;
    for (; k + 3 < na; k += 4) {
      const double *RESTRICT d0 = cur + act[k] * batch;
      const double *RESTRICT d1 = cur + act[k + 1] * batch;
      const double *RESTRICT d2 = cur + act[k + 2] * batch;
      const double *RESTRICT d3 = cur + act[k + 3] * batch;
      const double *RESTRICT w0 = p + off + act[k] * n_in;
      const double *RESTRICT w1 = p + off + act[k + 1] * n_in;
      const double *RESTRICT w2 = p + off + act[k + 2] * n_in;
      const double *RESTRICT w3 = p + off + act[k + 3] * n_in;
      for (long i = 0; i < n_in; i++) {
        const double wi0 = w0[i], wi1 = w1[i], wi2 = w2[i], wi3 = w3[i];
        double *RESTRICT di = d_in + i * batch;
        for (long l = 0; l < batch; l++) {
          const double dv0 = d0[l], dv1 = d1[l], dv2 = d2[l], dv3 = d3[l];
          double v = di[l];
          const double n0 = v + dv0 * wi0;
          v = (dv0 != 0.0) ? n0 : v;
          const double n1 = v + dv1 * wi1;
          v = (dv1 != 0.0) ? n1 : v;
          const double n2 = v + dv2 * wi2;
          v = (dv2 != 0.0) ? n2 : v;
          const double n3 = v + dv3 * wi3;
          v = (dv3 != 0.0) ? n3 : v;
          di[l] = v;
        }
      }
    }
    for (; k < na; k++) {
      const double *RESTRICT d = cur + act[k] * batch;
      const double *RESTRICT w = p + off + act[k] * n_in;
      for (long i = 0; i < n_in; i++) {
        const double wi = w[i];
        double *RESTRICT di = d_in + i * batch;
        for (long l = 0; l < batch; l++) {
          const double dv = d[l];
          const double v = di[l];
          const double nv = v + dv * wi;
          di[l] = (dv != 0.0) ? nv : v;
        }
      }
    }
  }
}

/* value layout: a float array is a pointer to its unboxed doubles; an int
 * array stores tagged immediates read with Long_val. */

CAMLprim value felix_mlp_forward_batch(value vp, value vsizes, value voffs,
                                       value vacts, value vbatch)
{
  const double *p = (const double *)vp;
  const long batch = Long_val(vbatch);
  const long nl = (long)Wosize_val(vsizes) - 1;
  for (long l = 0; l < nl; l++) {
    fwd_layer(p, Long_val(Field(voffs, l)), Long_val(Field(vsizes, l)),
              Long_val(Field(vsizes, l + 1)), batch,
              (const double *)Field(vacts, l), (double *)Field(vacts, l + 1),
              l < nl - 1);
  }
  return Val_unit;
}

CAMLprim value felix_mlp_forward_backward_batch(value vp, value vsizes, value voffs,
                                                value vacts, value vdelta, value vbatch)
{
  const double *p = (const double *)vp;
  const long batch = Long_val(vbatch);
  const long nl = (long)Wosize_val(vsizes) - 1;
  for (long l = 0; l < nl; l++) {
    fwd_layer(p, Long_val(Field(voffs, l)), Long_val(Field(vsizes, l)),
              Long_val(Field(vsizes, l + 1)), batch,
              (const double *)Field(vacts, l), (double *)Field(vacts, l + 1),
              l < nl - 1);
  }
  /* Seed d(score)/d(score) = 1 on output 0 of every lane, 0 elsewhere —
   * the batched image of the scalar top-delta fill. */
  {
    double *top = (double *)Field(vdelta, nl);
    const long n_top = Long_val(Field(vsizes, nl));
    for (long j = 0; j < batch * n_top; j++) top[j] = 0.0;
    for (long l = 0; l < batch; l++) top[l] = 1.0;
  }
  for (long l = nl - 1; l >= 0; l--) {
    bwd_layer(p, Long_val(Field(voffs, l)), Long_val(Field(vsizes, l)),
              Long_val(Field(vsizes, l + 1)), batch,
              (double *)Field(vdelta, l + 1), (const double *)Field(vacts, l + 1),
              (double *)Field(vdelta, l), l < nl - 1);
  }
  return Val_unit;
}

CAMLprim value felix_mlp_forward_backward_batch_byte(value *argv, int argn)
{
  (void)argn;
  return felix_mlp_forward_backward_batch(argv[0], argv[1], argv[2], argv[3],
                                          argv[4], argv[5]);
}

/* Weight and bias gradients of one dense layer. A weight cell must add its
 * active lanes in ascending lane order (the scalar example loop), so the
 * sum cannot be split across lanes; it is vectorised across inputs
 * instead. [prev] is transposed once into the lane-major plane
 * prevT[lane * n_in + i], so each lane's activations form a contiguous
 * strip; per output, the ReLU-masked deltas are compressed into the
 * ascending (lane offset, delta) lists [lidx]/[ldval], and the weight row
 * is swept as blocked AXPYs over i:
 *   g[i] = (((g[i] + d0 * p0[i]) + d1 * p1[i]) + d2 * p2[i]) + d3 * p3[i]
 * — one multiply and one add per lane, in lane order, never contracted.
 * The bias cell sums the same deltas in the same order. Every cell starts
 * from +0.0, so the layer's whole gradient block is overwritten. [cur] is
 * masked in place, as [bwd_mask] would, for the input-delta sweep. */
LANE_CLONES static void grad_layer(long n_in, long n_out, long batch,
                       const double *RESTRICT prev, double *RESTRICT cur,
                       const double *RESTRICT nxt, double *RESTRICT g,
                       double *RESTRICT prevT, value *RESTRICT lidx,
                       double *RESTRICT ldval, int relu)
{
  for (long i = 0; i < n_in; i++) {
    const double *RESTRICT pi = prev + i * batch;
    for (long l = 0; l < batch; l++) prevT[l * n_in + i] = pi[l];
  }
  double *RESTRICT gbias = g + n_in * n_out;
  for (long o = 0; o < n_out; o++) {
    double *RESTRICT d = cur + o * batch;
    const double *RESTRICT a = nxt + o * batch;
    long nact = 0;
    for (long l = 0; l < batch; l++) {
      const double dv = (relu && a[l] <= 0.0) ? 0.0 : d[l];
      d[l] = dv;
      if (dv != 0.0) {
        lidx[nact] = Val_long(l * n_in);
        ldval[nact++] = dv;
      }
    }
    double *RESTRICT gr = g + o * n_in;
    for (long i = 0; i < n_in; i++) gr[i] = 0.0;
    long k = 0;
    for (; k + 3 < nact; k += 4) {
      const double d0 = ldval[k], d1 = ldval[k + 1], d2 = ldval[k + 2], d3 = ldval[k + 3];
      const double *RESTRICT p0 = prevT + Long_val(lidx[k]);
      const double *RESTRICT p1 = prevT + Long_val(lidx[k + 1]);
      const double *RESTRICT p2 = prevT + Long_val(lidx[k + 2]);
      const double *RESTRICT p3 = prevT + Long_val(lidx[k + 3]);
      for (long i = 0; i < n_in; i++) {
        double v = gr[i];
        v = v + d0 * p0[i];
        v = v + d1 * p1[i];
        v = v + d2 * p2[i];
        v = v + d3 * p3[i];
        gr[i] = v;
      }
    }
    for (; k < nact; k++) {
      const double dk = ldval[k];
      const double *RESTRICT pk = prevT + Long_val(lidx[k]);
      for (long i = 0; i < n_in; i++) gr[i] = gr[i] + dk * pk[i];
    }
    double gb = 0.0;
    for (k = 0; k < nact; k++) gb = gb + ldval[k];
    gbias[o] = gb;
  }
}

/* Reverse sweep of the parameter gradient, top layer down, from the top
 * deltas already in [vdelta] (nl) and the forward activations in [vacts]:
 * overwrites the flat gradient [vg] (every weight and bias cell) and the
 * input-delta planes of layers 1..nl-1. Layer 0's input deltas have no
 * reader and are not computed. [vprevT] (>= batch * widest layer input),
 * [vlidx] and [vldval] (>= batch) are the caller's scratch. */
CAMLprim value felix_mlp_param_backward_batch(value vp, value vsizes, value voffs,
                                              value vacts, value vdelta, value vbatch,
                                              value vg, value vprevT, value vlidx,
                                              value vldval)
{
  const double *p = (const double *)vp;
  const long batch = Long_val(vbatch);
  const long nl = (long)Wosize_val(vsizes) - 1;
  for (long l = nl - 1; l >= 0; l--) {
    const long off = Long_val(Field(voffs, l));
    const long n_in = Long_val(Field(vsizes, l)), n_out = Long_val(Field(vsizes, l + 1));
    double *cur = (double *)Field(vdelta, l + 1);
    grad_layer(n_in, n_out, batch, (const double *)Field(vacts, l), cur,
               (const double *)Field(vacts, l + 1), (double *)vg + off,
               (double *)vprevT, (value *)vlidx, (double *)vldval, l < nl - 1);
    /* [cur] is masked now, so the input-delta sweep runs unmasked. */
    if (l > 0)
      bwd_layer(p, off, n_in, n_out, batch, cur, (const double *)Field(vacts, l + 1),
                (double *)Field(vdelta, l), 0);
  }
  return Val_unit;
}

CAMLprim value felix_mlp_param_backward_batch_byte(value *argv, int argn)
{
  (void)argn;
  return felix_mlp_param_backward_batch(argv[0], argv[1], argv[2], argv[3], argv[4],
                                        argv[5], argv[6], argv[7], argv[8], argv[9]);
}

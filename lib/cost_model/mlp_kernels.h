/* One instance of the MLP sweeps, included by mlp_stubs.c once per
 * instruction set. The includer defines
 *   VW      doubles per vector register (8 AVX-512, 4 AVX2, 2 SSE2),
 *   KERNEL  the target attribute the instance is compiled for,
 *   KNAME   the suffix that keeps each instance's names apart,
 * and gets the four sweeps KNAME(fwd_layer), KNAME(mask_layer),
 * KNAME(bwd_layer) and KNAME(grad_layer). The source is the same for
 * every instance; only the register width differs, and vector lanes only
 * ever hold independent cells, so every instance computes the same bits.
 * No include guard: including it again is how the next instance is made. */

#define vd KNAME(vd)
#define vm KNAME(vm)
#define vdu KNAME(vdu)
#define mk KNAME(mk)
#define fwd_tile KNAME(fwd_tile)
#define fwd_lane KNAME(fwd_lane)
#define fwd_outputs KNAME(fwd_outputs)
#define fwd_layer KNAME(fwd_layer)
#define mask_layer KNAME(mask_layer)
#define bwd_tile KNAME(bwd_tile)
#define bwd_lane KNAME(bwd_lane)
#define bwd_inputs KNAME(bwd_inputs)
#define bwd_layer KNAME(bwd_layer)
#define grad_tile KNAME(grad_tile)
#define grad_outputs KNAME(grad_outputs)
#define grad_layer KNAME(grad_layer)

typedef double vd __attribute__((vector_size(VW * sizeof(double))));
typedef long long vm __attribute__((vector_size(VW * sizeof(double))));
typedef double vdu __attribute__((vector_size(VW * sizeof(double)), aligned(sizeof(double))));

#define LOAD(p) ((vd)(*(const vdu *)(p)))
#define STORE(p, v) (*(vdu *)(p) = (v))
#if VW == 8
#define SPLAT(s) ((vd){ (s), (s), (s), (s), (s), (s), (s), (s) })
#elif VW == 4
#define SPLAT(s) ((vd){ (s), (s), (s), (s) })
#else
#define SPLAT(s) ((vd){ (s), (s) })
#endif
#define ZERO SPLAT(0.0)
/* The masked add of a delta step: acc + x where the delta is nonzero
 * (NaN included, as the scalar [d <> 0.0]), acc unchanged elsewhere.
 * AVX-512 does it in one instruction with a mask register; the narrower
 * sets add, then blend the old value back as bits. */
#if VW == 8
typedef __mmask8 mk;
#define NONZERO(v) _mm512_cmp_pd_mask((__m512d)(v), (__m512d)ZERO, _CMP_NEQ_UQ)
#define MADD(m, acc, x) ((vd)_mm512_mask_add_pd((__m512d)(acc), (m), (__m512d)(acc), (__m512d)(x)))
#else
typedef vm mk;
#define NONZERO(v) ((vm)((v) != ZERO))
#define MADD(m, acc, x) ((vd)(((vm)((acc) + (x)) & (m)) | ((vm)(acc) & ~(m))))
#endif
/* ReLU as the scalar kernels spell it: (0.0 >= a) ? +0.0 : a. */
#define RELU(a) ((vd)((vm)(a) & ~(vm)((a) <= ZERO)))

/* --- forward: out[o][l] = relu?(bias_o + sum_i w_oi * x[i][l]) ---------- */

/* Outputs [o0, o0+ob) x lanes [l0, l0 + VW*nv). */
INLINE KERNEL void fwd_tile(const double *RESTRICT w, const double *RESTRICT bias, long n_in,
                            long batch, const double *RESTRICT x, double *RESTRICT out,
                            long o0, long l0, const int ob, const int nv, int relu)
{
  vd acc[4][2];
  for (int o = 0; o < ob; o++)
    for (int v = 0; v < nv; v++) acc[o][v] = SPLAT(bias[o0 + o]);
  const double *RESTRICT wr = w + o0 * n_in;
  for (long i = 0; i < n_in; i++) {
    const double *RESTRICT xi = x + i * batch + l0;
    vd xv[2];
    for (int v = 0; v < nv; v++) xv[v] = LOAD(xi + VW * v);
    for (int o = 0; o < ob; o++) {
      const double wi = wr[o * n_in + i];
      for (int v = 0; v < nv; v++) acc[o][v] = acc[o][v] + wi * xv[v];
    }
  }
  for (int o = 0; o < ob; o++)
    for (int v = 0; v < nv; v++)
      STORE(out + (o0 + o) * batch + l0 + VW * v, relu ? RELU(acc[o][v]) : acc[o][v]);
}

/* Outputs [o0, o0+ob) x the single lane l. */
INLINE KERNEL void fwd_lane(const double *RESTRICT w, const double *RESTRICT bias, long n_in,
                            long batch, const double *RESTRICT x, double *RESTRICT out,
                            long o0, long l, const int ob, int relu)
{
  double acc[4];
  for (int o = 0; o < ob; o++) acc[o] = bias[o0 + o];
  const double *RESTRICT wr = w + o0 * n_in;
  for (long i = 0; i < n_in; i++) {
    const double xi = x[i * batch + l];
    for (int o = 0; o < ob; o++) acc[o] = acc[o] + wr[o * n_in + i] * xi;
  }
  for (int o = 0; o < ob; o++)
    out[(o0 + o) * batch + l] = (relu && 0.0 >= acc[o]) ? 0.0 : acc[o];
}

INLINE KERNEL void fwd_outputs(const double *RESTRICT w, const double *RESTRICT bias, long n_in,
                               long batch, const double *RESTRICT x, double *RESTRICT out,
                               long o0, const int ob, int relu)
{
  long l = 0;
  for (; l + 2 * VW <= batch; l += 2 * VW)
    fwd_tile(w, bias, n_in, batch, x, out, o0, l, ob, 2, relu);
  if (l + VW <= batch) {
    fwd_tile(w, bias, n_in, batch, x, out, o0, l, ob, 1, relu);
    l += VW;
  }
  for (; l < batch; l++) fwd_lane(w, bias, n_in, batch, x, out, o0, l, ob, relu);
}

KERNEL static void fwd_layer(const double *RESTRICT p, long off, long n_in, long n_out,
                             long batch, const double *RESTRICT x,
                             double *RESTRICT out, int relu)
{
  const double *RESTRICT w = p + off;
  const double *RESTRICT bias = w + n_in * n_out;
  long o = 0;
  for (; o + 4 <= n_out; o += 4) fwd_outputs(w, bias, n_in, batch, x, out, o, 4, relu);
  switch (n_out - o) {
  case 3: fwd_outputs(w, bias, n_in, batch, x, out, o, 3, relu); break;
  case 2: fwd_outputs(w, bias, n_in, batch, x, out, o, 2, relu); break;
  case 1: fwd_outputs(w, bias, n_in, batch, x, out, o, 1, relu); break;
  default: break;
  }
}

/* --- ReLU mask of the incoming deltas ------------------------------------ */

/* Masks [cur] in place by the layer's ReLU pattern (when [relu]) and lists
 * the outputs whose delta is nonzero on some lane, ascending, in [act];
 * returns their count. An output missing from the list would only ever
 * have its adds discarded. */
KERNEL static long mask_layer(long n_out, long batch, double *RESTRICT cur,
                              const double *RESTRICT nxt, int relu,
                              value *RESTRICT act)
{
  long na = 0;
  for (long o = 0; o < n_out; o++) {
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
    if (any) act[na++] = Val_long(o);
  }
  return na;
}

/* --- input deltas: d_in[i][l] = sum_{o active, d[o][l] != 0} d[o][l] * w_oi */

/* Inputs [i0, i0+ib) x lanes [l0, l0 + VW*nv). */
INLINE KERNEL void bwd_tile(const double *RESTRICT w, long n_in, long batch,
                            const double *RESTRICT cur, const value *RESTRICT act, long na,
                            double *RESTRICT d_in, long i0, long l0, const int ib, const int nv)
{
  vd acc[4][2];
  for (int j = 0; j < ib; j++)
    for (int v = 0; v < nv; v++) acc[j][v] = ZERO;
  for (long k = 0; k < na; k++) {
    const long o = Long_val(act[k]);
    const double *RESTRICT d = cur + o * batch + l0;
    const double *RESTRICT wr = w + o * n_in + i0;
    vd dv[2];
    mk m[2];
    for (int v = 0; v < nv; v++) {
      dv[v] = LOAD(d + VW * v);
      m[v] = NONZERO(dv[v]);
    }
    for (int j = 0; j < ib; j++) {
      const double wj = wr[j];
      for (int v = 0; v < nv; v++) acc[j][v] = MADD(m[v], acc[j][v], dv[v] * wj);
    }
  }
  for (int j = 0; j < ib; j++)
    for (int v = 0; v < nv; v++) STORE(d_in + (i0 + j) * batch + l0 + VW * v, acc[j][v]);
}

/* Inputs [i0, i0+ib) x the single lane l. */
INLINE KERNEL void bwd_lane(const double *RESTRICT w, long n_in, long batch,
                            const double *RESTRICT cur, const value *RESTRICT act, long na,
                            double *RESTRICT d_in, long i0, long l, const int ib)
{
  double acc[4];
  for (int j = 0; j < ib; j++) acc[j] = 0.0;
  for (long k = 0; k < na; k++) {
    const long o = Long_val(act[k]);
    const double dv = cur[o * batch + l];
    const double *RESTRICT wr = w + o * n_in + i0;
    for (int j = 0; j < ib; j++) {
      const double nv = acc[j] + dv * wr[j];
      acc[j] = (dv != 0.0) ? nv : acc[j];
    }
  }
  for (int j = 0; j < ib; j++) d_in[(i0 + j) * batch + l] = acc[j];
}

INLINE KERNEL void bwd_inputs(const double *RESTRICT w, long n_in, long batch,
                              const double *RESTRICT cur, const value *RESTRICT act, long na,
                              double *RESTRICT d_in, long i0, const int ib)
{
  long l = 0;
  for (; l + 2 * VW <= batch; l += 2 * VW)
    bwd_tile(w, n_in, batch, cur, act, na, d_in, i0, l, ib, 2);
  if (l + VW <= batch) {
    bwd_tile(w, n_in, batch, cur, act, na, d_in, i0, l, ib, 1);
    l += VW;
  }
  for (; l < batch; l++) bwd_lane(w, n_in, batch, cur, act, na, d_in, i0, l, ib);
}

/* Overwrites the whole d_in plane from the masked deltas [cur] and their
 * active-output list. */
KERNEL static void bwd_layer(const double *RESTRICT p, long off, long n_in, long batch,
                             const double *RESTRICT cur, const value *RESTRICT act,
                             long na, double *RESTRICT d_in)
{
  const double *RESTRICT w = p + off;
  long i = 0;
  for (; i + 4 <= n_in; i += 4) bwd_inputs(w, n_in, batch, cur, act, na, d_in, i, 4);
  switch (n_in - i) {
  case 3: bwd_inputs(w, n_in, batch, cur, act, na, d_in, i, 3); break;
  case 2: bwd_inputs(w, n_in, batch, cur, act, na, d_in, i, 2); break;
  case 1: bwd_inputs(w, n_in, batch, cur, act, na, d_in, i, 1); break;
  default: break;
  }
}

/* --- weight and bias gradients ------------------------------------------

   g[o][i] = sum over lanes l ascending with d[o][l] != 0 of d[o][l] * x[i][l],
   from +0.0; the bias cell sums the same deltas. Dense and masked: every
   lane is visited, its add kept only where the delta is nonzero. */

/* Outputs [o0, o0+ob) x inputs [i0, i0+ni), ni <= VW*nv; prevT rows are
 * read VW*nv wide, so an edge tile reads fewer than VW doubles past its
 * row. */
INLINE KERNEL void grad_tile(long n_in, long batch, const double *RESTRICT cur,
                             const double *RESTRICT prevT, double *RESTRICT g, long o0, long i0,
                             long ni, const int ob, const int nv)
{
  vd acc[4][2];
  for (int o = 0; o < ob; o++)
    for (int v = 0; v < nv; v++) acc[o][v] = ZERO;
  const double *RESTRICT d = cur + o0 * batch;
  for (long l = 0; l < batch; l++) {
    const double *RESTRICT pr = prevT + l * n_in + i0;
    vd pv[2];
    for (int v = 0; v < nv; v++) pv[v] = LOAD(pr + VW * v);
    for (int o = 0; o < ob; o++) {
      const vd dv = SPLAT(d[o * batch + l]);
      const mk m = NONZERO(dv);
      for (int v = 0; v < nv; v++) acc[o][v] = MADD(m, acc[o][v], dv * pv[v]);
    }
  }
  for (int o = 0; o < ob; o++) {
    double *RESTRICT gr = g + (o0 + o) * n_in + i0;
    if (ni == VW * nv) {
      for (int v = 0; v < nv; v++) STORE(gr + VW * v, acc[o][v]);
    } else {
      double tmp[2 * VW];
      for (int v = 0; v < nv; v++) STORE(tmp + VW * v, acc[o][v]);
      for (long j = 0; j < ni; j++) gr[j] = tmp[j];
    }
  }
}

INLINE KERNEL void grad_outputs(long n_in, long batch, const double *RESTRICT cur,
                                const double *RESTRICT prevT, double *RESTRICT g, long i0,
                                long ni, const int nv, long n_out)
{
  long o = 0;
  for (; o + 4 <= n_out; o += 4) grad_tile(n_in, batch, cur, prevT, g, o, i0, ni, 4, nv);
  switch (n_out - o) {
  case 3: grad_tile(n_in, batch, cur, prevT, g, o, i0, ni, 3, nv); break;
  case 2: grad_tile(n_in, batch, cur, prevT, g, o, i0, ni, 2, nv); break;
  case 1: grad_tile(n_in, batch, cur, prevT, g, o, i0, ni, 1, nv); break;
  default: break;
  }
}

/* Weight and bias gradients of one dense layer from its masked deltas
 * [cur] and input activations [prev]; overwrites the layer's whole
 * gradient block. [prevT] holds at least batch * n_in + 8 doubles. */
KERNEL static void grad_layer(long n_in, long n_out, long batch,
                              const double *RESTRICT prev, const double *RESTRICT cur,
                              double *RESTRICT g, double *RESTRICT prevT)
{
  for (long l0 = 0; l0 < batch; l0 += VW) {
    const long l1 = (l0 + VW < batch) ? l0 + VW : batch;
    for (long i = 0; i < n_in; i++) {
      const double *RESTRICT pi = prev + i * batch;
      for (long l = l0; l < l1; l++) prevT[l * n_in + i] = pi[l];
    }
  }
  long i = 0;
  for (; i + 2 * VW <= n_in; i += 2 * VW)
    grad_outputs(n_in, batch, cur, prevT, g, i, 2 * VW, 2, n_out);
  if (n_in - i > VW) grad_outputs(n_in, batch, cur, prevT, g, i, n_in - i, 2, n_out);
  else if (n_in > i) grad_outputs(n_in, batch, cur, prevT, g, i, n_in - i, 1, n_out);
  /* Bias cells, four independent sums at a time. */
  double *RESTRICT gbias = g + n_in * n_out;
  long o = 0;
  for (; o + 4 <= n_out; o += 4) {
    const double *RESTRICT d = cur + o * batch;
    double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    for (long l = 0; l < batch; l++) {
      const double d0 = d[l], d1 = d[batch + l], d2 = d[2 * batch + l], d3 = d[3 * batch + l];
      const double n0 = b0 + d0, n1 = b1 + d1, n2 = b2 + d2, n3 = b3 + d3;
      b0 = (d0 != 0.0) ? n0 : b0;
      b1 = (d1 != 0.0) ? n1 : b1;
      b2 = (d2 != 0.0) ? n2 : b2;
      b3 = (d3 != 0.0) ? n3 : b3;
    }
    gbias[o] = b0;
    gbias[o + 1] = b1;
    gbias[o + 2] = b2;
    gbias[o + 3] = b3;
  }
  for (; o < n_out; o++) {
    const double *RESTRICT d = cur + o * batch;
    double b = 0.0;
    for (long l = 0; l < batch; l++) {
      const double nb = b + d[l];
      b = (d[l] != 0.0) ? nb : b;
    }
    gbias[o] = b;
  }
}

#undef vd
#undef vm
#undef vdu
#undef mk
#undef fwd_tile
#undef fwd_lane
#undef fwd_outputs
#undef fwd_layer
#undef mask_layer
#undef bwd_tile
#undef bwd_lane
#undef bwd_inputs
#undef bwd_layer
#undef grad_tile
#undef grad_outputs
#undef grad_layer
#undef LOAD
#undef STORE
#undef SPLAT
#undef ZERO
#undef NONZERO
#undef MADD
#undef RELU

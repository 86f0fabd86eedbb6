/* Batched MLP kernels: register-blocked micro-kernels, one per sweep.
 *
 * Layout contract (see mlp.ml): activation and delta planes are
 * feature-major with row stride equal to the current batch —
 * plane[j * batch + lane] — so the lanes of one neuron form a contiguous
 * strip. Every sweep is a reduction whose cells are independent: the
 * forward sums inputs into (output, lane) cells, the input-delta sweep
 * sums outputs into (input, lane) cells, the weight gradient sums lanes
 * into (output, input) cells. Each kernel keeps a tile of cells in
 * registers across the whole reduction — 4 outputs x 2 vectors of lanes,
 * 4 inputs x 2 vectors of lanes, 4 outputs x 2 vectors of inputs — so a
 * cell is loaded and stored once per sweep instead of once per reduction
 * step. The sweeps live in mlp_kernels.h.
 *
 * A cell's operation sequence is exactly the scalar OCaml kernel's: bias
 * first, then inputs in ascending order (forward); active outputs in
 * ascending order (input deltas); active lanes in ascending order
 * (weight and bias gradients); one multiply and one add per step, never
 * contracted into an FMA, ReLU as the same compare. A step whose delta is
 * zero (either sign) leaves the cell untouched: its add is discarded by a
 * blend, never replaced by adding 0.0, which could turn a -0.0 cell into
 * +0.0 or let 0 * inf poison it. Vector lanes only ever hold independent
 * cells, so every cell is bit-identical to the OCaml path. The build
 * flags (dune: -O3 -ffp-contract=off -fno-trapping-math) keep IEEE
 * semantics exact.
 *
 * Narrower tiles cover the edges: 1-3 outputs or inputs, one vector of
 * lanes, and single lanes (scalar code with the same blocking over
 * outputs or inputs). The weight gradient vectorises across inputs over
 * a lane-major transpose of each layer's input activations,
 * prevT[lane * n_in + i]; its edge tiles read up to 7 doubles past a row
 * (into the next row, or the 8 doubles of padding the caller allocates
 * after the plane) and store only the valid cells.
 *
 * These functions allocate nothing, keep no state of their own (all
 * scratch belongs to the caller's workspace, so concurrent callers on
 * separate workspaces are safe) and never call back into the runtime, so
 * they are declared [@@noalloc] on the OCaml side.
 */

#include <caml/mlvalues.h>

#if defined(__GNUC__)
#define RESTRICT __restrict__
#define INLINE static inline __attribute__((always_inline))
#else
#define RESTRICT
#define INLINE static inline
#endif

/* The register width must be the instruction set's own: a vector type
 * wider than the hardware's is lowered through memory, tens of times
 * slower. So mlp_kernels.h is compiled once per x86-64 instruction set —
 * AVX-512 (8 doubles), AVX2 (4) and the SSE2 baseline (2) — and the
 * widest one the running CPU supports is picked on first use. Elsewhere
 * the 2-double instance is the only one. The width never changes a
 * cell's IEEE result. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__gnu_linux__)
#define X86_INSTANCES 1
#endif

#ifdef X86_INSTANCES
#include <immintrin.h>

#define VW 8
#define KERNEL __attribute__((target("avx512f")))
#define KNAME(f) f##_avx512
#include "mlp_kernels.h"
#undef VW
#undef KERNEL
#undef KNAME

#define VW 4
#define KERNEL __attribute__((target("avx2")))
#define KNAME(f) f##_avx2
#include "mlp_kernels.h"
#undef VW
#undef KERNEL
#undef KNAME
#endif

#define VW 2
#define KERNEL
#define KNAME(f) f##_base
#include "mlp_kernels.h"
#undef VW
#undef KERNEL
#undef KNAME

typedef struct {
  void (*fwd_layer)(const double *, long, long, long, long, const double *, double *, int);
  long (*mask_layer)(long, long, double *, const double *, int, value *);
  void (*bwd_layer)(const double *, long, long, long, const double *, const value *, long,
                    double *);
  void (*grad_layer)(long, long, long, const double *, const double *, double *, double *);
} kernels;

#define KERNELS(suffix) \
  { fwd_layer_##suffix, mask_layer_##suffix, bwd_layer_##suffix, grad_layer_##suffix }

static const kernels kernels_base = KERNELS(base);
#ifdef X86_INSTANCES
static const kernels kernels_avx2 = KERNELS(avx2);
static const kernels kernels_avx512 = KERNELS(avx512);
#endif

/* Chosen once; concurrent first calls store the same pointer. */
static const kernels *chosen = NULL;

static const kernels *pick(void)
{
  const kernels *k = __atomic_load_n(&chosen, __ATOMIC_RELAXED);
  if (k) return k;
  k = &kernels_base;
#ifdef X86_INSTANCES
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) k = &kernels_avx512;
  else if (__builtin_cpu_supports("avx2")) k = &kernels_avx2;
#endif
  __atomic_store_n(&chosen, k, __ATOMIC_RELAXED);
  return k;
}

/* --- entry points ----------------------------------------------------------

   value layout: a float array is a pointer to its unboxed doubles; an int
   array stores tagged immediates read with Long_val. */

static void forward_layers(const kernels *k, const double *p, value vsizes, value voffs,
                           value vacts, long batch)
{
  const long nl = (long)Wosize_val(vsizes) - 1;
  for (long l = 0; l < nl; l++) {
    k->fwd_layer(p, Long_val(Field(voffs, l)), Long_val(Field(vsizes, l)),
              Long_val(Field(vsizes, l + 1)), batch, (const double *)Field(vacts, l),
              (double *)Field(vacts, l + 1), l < nl - 1);
  }
}

CAMLprim value felix_mlp_forward_batch(value vp, value vsizes, value voffs,
                                       value vacts, value vbatch)
{
  forward_layers(pick(), (const double *)vp, vsizes, voffs, vacts, Long_val(vbatch));
  return Val_unit;
}

/* Forward, then d(score)/d(input) into the delta planes. [vact] (>= the
 * widest layer) is the caller's scratch for active-output lists. */
CAMLprim value felix_mlp_forward_backward_batch(value vp, value vsizes, value voffs,
                                                value vacts, value vdelta, value vbatch,
                                                value vact)
{
  const kernels *k = pick();
  const double *p = (const double *)vp;
  const long batch = Long_val(vbatch);
  const long nl = (long)Wosize_val(vsizes) - 1;
  forward_layers(k, p, vsizes, voffs, vacts, batch);
  /* Seed d(score)/d(score) = 1 on output 0 of every lane, 0 elsewhere —
   * the batched image of the scalar top-delta fill. */
  {
    double *top = (double *)Field(vdelta, nl);
    const long n_top = Long_val(Field(vsizes, nl));
    for (long j = 0; j < batch * n_top; j++) top[j] = 0.0;
    for (long l = 0; l < batch; l++) top[l] = 1.0;
  }
  for (long l = nl - 1; l >= 0; l--) {
    const long n_out = Long_val(Field(vsizes, l + 1));
    double *cur = (double *)Field(vdelta, l + 1);
    const long na = k->mask_layer(n_out, batch, cur, (const double *)Field(vacts, l + 1),
                                  l < nl - 1, (value *)vact);
    k->bwd_layer(p, Long_val(Field(voffs, l)), Long_val(Field(vsizes, l)), batch, cur,
              (const value *)vact, na, (double *)Field(vdelta, l));
  }
  return Val_unit;
}

CAMLprim value felix_mlp_forward_backward_batch_byte(value *argv, int argn)
{
  (void)argn;
  return felix_mlp_forward_backward_batch(argv[0], argv[1], argv[2], argv[3], argv[4],
                                          argv[5], argv[6]);
}

/* Reverse sweep of the parameter gradient, top layer down, from the top
 * deltas already in [vdelta] (nl) and the forward activations in [vacts]:
 * overwrites the flat gradient [vg] (every weight and bias cell) and the
 * input-delta planes of layers 1..nl-1. Layer 0's input deltas have no
 * reader and are not computed. [vprevT] (>= batch * widest layer input
 * + 8) and [vact] (>= the widest layer) are the caller's scratch. */
CAMLprim value felix_mlp_param_backward_batch(value vp, value vsizes, value voffs,
                                              value vacts, value vdelta, value vbatch,
                                              value vg, value vprevT, value vact)
{
  const kernels *k = pick();
  const double *p = (const double *)vp;
  const long batch = Long_val(vbatch);
  const long nl = (long)Wosize_val(vsizes) - 1;
  for (long l = nl - 1; l >= 0; l--) {
    const long off = Long_val(Field(voffs, l));
    const long n_in = Long_val(Field(vsizes, l)), n_out = Long_val(Field(vsizes, l + 1));
    double *cur = (double *)Field(vdelta, l + 1);
    const long na = k->mask_layer(n_out, batch, cur, (const double *)Field(vacts, l + 1),
                                  l < nl - 1, (value *)vact);
    k->grad_layer(n_in, n_out, batch, (const double *)Field(vacts, l), cur, (double *)vg + off,
               (double *)vprevT);
    if (l > 0)
      k->bwd_layer(p, off, n_in, batch, cur, (const value *)vact, na,
                (double *)Field(vdelta, l));
  }
  return Val_unit;
}

CAMLprim value felix_mlp_param_backward_batch_byte(value *argv, int argn)
{
  (void)argn;
  return felix_mlp_param_backward_batch(argv[0], argv[1], argv[2], argv[3], argv[4],
                                        argv[5], argv[6], argv[7], argv[8]);
}

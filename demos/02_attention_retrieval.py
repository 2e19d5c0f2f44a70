"""Epipolar attention versus full cross attention.

Three small experiments on random feature maps and on a rendered pair:

1. epipolar attention given the *whole* reference grid as its sample set
   reproduces full cross attention exactly (they are the same operator
   when the search space is not restricted);
2. restricting the samples to the epipolar line shrinks the similarity
   buffer from (H*W)^2 to H*W*max(W,H) entries;
3. similarity maps for one query, dumped as PGM images: the epipolar map
   is concentrated on the line, the full map spreads over the image. The
   weights are the attention core's own logits (``epipolar_logits``,
   slot-major (heads, S, N), and ``full_logits``, key-major (heads, V, M,
   N)) softmaxed over their keys with ``masked_softmax``, as the core does.

Run:  python demos/02_attention_retrieval.py
"""

from pathlib import Path

import numpy as np

from epiview.attention import (
    AttentionCounters,
    AttentionParams,
    duplicate_params,
    epipolar_attention,
    epipolar_logits,
    full_cross_attention,
    full_logits,
    project_context,
)
from epiview.fileio import write_pgm
from epiview.geometry import EpipolarSampleSet, epipolar_sample_grid, relative_pose
from epiview.scenegen import make_scene, make_trajectory, positional_features, render
from epiview.geometry import CameraIntrinsics

out = Path("demo_out/attention_retrieval")
out.mkdir(parents=True, exist_ok=True)

# --- 1. equivalence ---------------------------------------------------------
rng = np.random.default_rng(0)
from epiview.numerics import FeatureMap, masked_softmax

f_tgt = FeatureMap(rng.standard_normal((8, 8, 16)))
f_ref = FeatureMap(rng.standard_normal((8, 8, 16)))
params = AttentionParams.seeded(16, 4, rng)
ctx = project_context(f_ref, params)

everything = EpipolarSampleSet.full_grid(8, 8, 64)
out_epi, _ = epipolar_attention(f_tgt, ctx, everything, duplicate_params(params))
out_full, _ = full_cross_attention(f_tgt, [ctx], params)[0]
print("1. full-grid epipolar vs cross attention, max |diff|:",
      f"{np.abs(out_epi.data - out_full.data).max():.2e}")

# --- 2. buffer accounting ---------------------------------------------------
K = CameraIntrinsics.from_fov(32, 32)
scene = make_scene(0, "distinctive")
cams = make_trajectory("free16", 100)
va, vb = render(scene, cams[0], K), render(scene, cams[1], K)
fa = positional_features(scene, va, 32, 32)
fb = positional_features(scene, vb, 32, 32)
idp = AttentionParams.identity(fa.channels)
ctx_ab = project_context(fb, idp)
pose = relative_pose(vb.extrinsics, va.extrinsics)
samples = epipolar_sample_grid(pose, K, 32, 32)

ce, cf = AttentionCounters(), AttentionCounters()
epipolar_attention(fa, ctx_ab, samples, idp, ce)
full_cross_attention(fa, [ctx_ab], idp, cf)
print(f"2. similarity-buffer elements: epipolar {ce.peak_elems:,} "
      f"vs full {cf.peak_elems:,} "
      f"({cf.peak_elems / ce.peak_elems:.0f}x smaller search space)")

# --- 3. similarity maps for one query ---------------------------------------
q = 17 * 32 + 15  # a pixel on the ball
valid_e = samples.valid    # (S, N): slot s of query q
weights_e = masked_softmax(epipolar_logits(fa, ctx_ab, samples, idp), valid_e, axis=-2)[0]
epi_map = np.zeros((32, 32))
for s in range(samples.uv.shape[0]):
    if valid_e[s, q]:
        u, v = np.round(samples.uv[s, q]).astype(int)
        epi_map[v, u] = max(epi_map[v, u], weights_e[s, q])

weights_f = masked_softmax(full_logits(fa, [ctx_ab], idp)[0, 0], None, axis=-2)   # (M, N)
full_map = weights_f[:, q].reshape(32, 32)

write_pgm(out / "epipolar_weights.pgm", epi_map / epi_map.max())
write_pgm(out / "full_weights.pgm", full_map / full_map.max())
print(f"3. wrote {out}/epipolar_weights.pgm and {out}/full_weights.pgm")
print(f"   peak epipolar weight {weights_e[:, q].max():.3f} over "
      f"{int(valid_e[:, q].sum())} line samples; "
      f"peak full weight {weights_f[:, q].max():.3f} over 1024 positions")

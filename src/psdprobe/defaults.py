"""Calibrated constants used as defaults across the testers.

The underlying guarantees are asymptotic and leave every absolute constant
unnamed.  The calibration suites (``psdprobe calibrate --suite <name>``)
each write one committed report under ``calibration/``:

  * c_psd.json        -- C_PSD and C_FAR (gamma quantiles at kappa 12)
  * kappa_sketch.json -- SKETCH_KAPPA
  * kappa_oja.json    -- OJA_ITER_SCALE
  * kappa_krylov.json -- KRYLOV_KAPPA
  * embed_rows.json   -- EMBED_KAPPA

The four ladder suites (all but c_psd) follow one rule: walk the ladder's
rungs upward, measure each, and stop at the first rung whose worst rate
reaches 0.9.  That rung is the reported constant; a ladder with no
passing rung reports ``separated: false`` and no constant.

EMBED_KAPPA matches its report.  Every other reported constant differs
from its report, and CALIBRATION_MARGINS below gives its report value and
the reason for the gap; a tier-1 test holds each report to one or the
other.  Reconciling the gaps is an open item in ROADMAP.md.  Change a value
only by re-running calibration, with BLAS on one thread
(OPENBLAS_NUM_THREADS=1): the last digits of c_psd and kappa_sketch move
with the BLAS thread count.
"""

# --- shipped values that differ from their calibration report ---------------
# name: (value in calibration/<suite>.json, why the shipped value differs)
CALIBRATION_MARGINS = {
    # kappa_sketch refits the PSD threshold at every rung, so 4.0 holds only
    # with a C_PSD measured at 4.0; the shipped C_PSD was measured at 12.
    "SKETCH_KAPPA": (4.0, "C_PSD was calibrated at kappa 12 (c_psd.json)"),
    # Both ladders ran on the flat far family, which any tester solves in
    # O(1) queries, and passed at their lowest rung: no rung failed, so
    # the reports bound nothing on hard inputs.
    "KRYLOV_KAPPA": (0.5, "lowest rung, on the flat far family only"),
    "OJA_ITER_SCALE": (0.125, "lowest rung, flat far family, amplification "
                              "6 where OJA_AMP is 20"),
    # The report gives the smallest per-cell implied floor of far gammas; a
    # smaller C_FAR lowers the far envelope and so only grows the sketch.
    "C_FAR": (1.1266554358155936, "margin below the smallest implied floor"),
    "C_PSD": (0.27866009275416426, "pooled 99th percentile, rounded up"),
}

# --- rejection floor of every sketch and Krylov tester (vmv_testers._lowest)
EIG_TOL = 1e-9            # lambda_min(S) < -EIG_TOL ||S||_F is really negative

# --- dimension reduction ahead of the adaptive l1 tester -----------------
REDUCE_KAPPA = 8.0        # reduced dimension m = ceil(REDUCE_KAPPA / eps)
REDUCE_EPS_SHRINK = 4.0   # reduction keeps lambda_min below -eps/this factor

# --- adaptive l1 (Oja iteration) ------------------------------------------
OJA_STEP_C = 1.0          # eta = min(OJA_ETA_MAX, OJA_STEP_C / ln(10/eps^2))
OJA_ETA_MAX = 0.25
OJA_ITER_SCALE = 1.0      # multiplier on N = (2/(eta eps)) ln(10/eps^2)
OJA_AMP = 20              # independent repetitions (single run succeeds >~ 1/10)
OJA_MARGIN = 1e-12        # relative f threshold before the confirming query
OJA_BLOWUP = 1e120        # abandon a step-size scale once ||x||^2 passes this

# --- memory guard of the sketch testers -----------------------------------
# bilinear_sketch holds G (d x k) and G^T A G (k x k), all float64, and a
# sketch past this many bytes is refused before any query.  adaptive_l2 is
# refused at the same d x k G, although past k = d it holds only a d x d
# factor L of it and its d x d form L^T A L (2637 x 256 at eps 0.3 would be
# 5.4 MB; it holds 1 MB): its run length grows with k, so the cap bounds
# that too.
SKETCH_MAX_BYTES = 2 ** 30

# --- bilinear sketch (two-sided l2 tester) --------------------------------
SKETCH_KAPPA = 12.0       # k = ceil(SKETCH_KAPPA eps^-2 ln^2(max(e, 1/eps)))
C_PSD = 0.28              # pooled 99th pctile of gamma on the PSD sweeps was
                          # 0.2787 (calibration/c_psd.json); committed a hair up
FROB_EPS_FAIL = 0.01      # failure probability of the beta estimate

# --- adaptive l2 tester ----------------------------------------------------
PROBE_COUNT = 8           # Gaussian quad-form probes before sketching
C_FAR = 0.70              # gamma >= C_FAR*(eps sqrt(k) - C_FAR_GAP)/ln k when far;
                          # per-cell implied floor was 1.13, committed with margin
C_FAR_GAP = 1.0
GAMMA_ETA_C = 1.4         # unit step for the Oja run on the shifted sketch
GAMMA_GROWTH_LOG = 5.0    # ln of the amplification the negative mode needs
GAMMA_AMP = 3

# --- non-adaptive testers --------------------------------------------------
NONADAPT_KAPPA = 8.0      # sketch size m = ceil(NONADAPT_KAPPA / eps)
NONADAPT_REPEATS = 5

# --- Krylov (mv model) ------------------------------------------------------
KRYLOV_KAPPA = 4.0        # k = ceil(KRYLOV_KAPPA eps^(-p/(2p+1)) ln(1/eps) ...)
KRYLOV_REPEATS = 5

# --- spectrum estimation ----------------------------------------------------
EMBED_KAPPA = 40.0        # embedding rows = ceil(EMBED_KAPPA m / eps^2), <= d
SKETCH_R_KAPPA = 8.0      # right sketch columns m = ceil(SKETCH_R_KAPPA k / eps)
FROB_SQ_KAPPA = 100.0     # squared-Frobenius samples n = ceil(FROB_SQ_KAPPA/eps^2);
                          # a (g^T A h)^2 probe has relative std around 3, so
                          # ~100/eps^2 of them pin the mean to O(eps)
MEDIAN_REPS_C = 3.0       # repetitions = ceil(MEDIAN_REPS_C * ln(1/delta))

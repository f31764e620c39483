"""Calibrated constants used as defaults across the testers.

The underlying guarantees are asymptotic and leave every absolute constant
unnamed.  The calibration suites (``psdprobe calibrate --suite <name>``)
each write one committed report under ``calibration/``:

  * c_psd.json        -- C_PSD and C_FAR (gamma quantiles at kappa 12)
  * kappa_sketch.json -- SKETCH_KAPPA
  * kappa_oja.json    -- OJA_ITER_SCALE
  * kappa_krylov.json -- KRYLOV_KAPPA
  * embed_rows.json   -- EMBED_KAPPA

EMBED_KAPPA and C_PSD match their reports.  SKETCH_KAPPA (report 4.0),
KRYLOV_KAPPA (0.5), OJA_ITER_SCALE (0.125) and C_FAR (1.127) differ from
theirs; reconciling them is an open item in ROADMAP.md.  Change a value
only by re-running calibration.
"""

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

# --- bilinear sketch (two-sided l2 tester) --------------------------------
SKETCH_KAPPA = 12.0       # k = ceil(SKETCH_KAPPA eps^-2 ln^2(max(e, 1/eps)))
C_PSD = 0.28              # pooled 99th pctile of gamma on the PSD sweeps was
                          # 0.2787 (calibration/c_psd.json); committed a hair up
FROB_EPS_FAIL = 0.01      # failure probability of the beta estimate
SKETCH_EIG_TOL = 1e-9     # lambda_min(S) noise floor, times beta * k

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
KRYLOV_EIG_TOL = 1e-10    # relative lambda_min(PI A PI) rejection floor

# --- spectrum estimation ----------------------------------------------------
EMBED_KAPPA = 40.0        # embedding rows = ceil(EMBED_KAPPA m / eps^2), <= d
SKETCH_R_KAPPA = 8.0      # right sketch columns m = ceil(SKETCH_R_KAPPA k / eps)
FROB_SQ_KAPPA = 100.0     # squared-Frobenius samples n = ceil(FROB_SQ_KAPPA/eps^2);
                          # a (g^T A h)^2 probe has relative std around 3, so
                          # ~100/eps^2 of them pin the mean to O(eps)
MEDIAN_REPS_C = 3.0       # repetitions = ceil(MEDIAN_REPS_C * ln(1/delta))

"""Application case studies from the paper's evaluation (§5.3):

* :mod:`repro.apps.race`       -- a RACE-style disaggregated key-value
  store driven over one-sided RDMA; its ``backends`` module is the one
  app transport per stack (verbs / LITE / KRCORE) every app here drives;
* :mod:`repro.apps.txn`        -- FaRM-style OCC transactions over the
  same transports (Fig 1's motivating workload);
* :mod:`repro.apps.microview`  -- a collector harvesting per-pod metric
  MRs under pod churn, three harvest strategies over those transports;
* :mod:`repro.apps.serverless` -- an Fn-like serverless platform running
  ServerlessBench's data-transfer testcase over RDMA.
"""

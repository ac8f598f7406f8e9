"""KRCORE: a microsecond-scale RDMA control plane (the paper's contribution).

The package mirrors the paper's §4 design:

* :mod:`repro.krcore.meta`       -- DCT metadata + ValidMR meta servers
  backed by DrTM-KV, queried with one-sided READs (§4.2, C#1), plus the
  consistent-hash :class:`MetaPlane` sharding them for elastic scale-out;
* :mod:`repro.krcore.pool`       -- the per-CPU hybrid RC/DC QP pool (§4.2);
* :mod:`repro.krcore.mrstore`    -- MR validation bookkeeping with
  lease-based cache invalidation (§4.2);
* :mod:`repro.krcore.vqp`        -- virtual QPs: Algorithm 1 (creation and
  connection) and Algorithm 2 (post_send / poll_cq virtualization, §4.3-4.4),
  the zero-copy protocol (§4.5), and the QP transfer protocol (§4.6);
* :mod:`repro.krcore.module`     -- the per-node "loadable kernel module"
  wiring it together: the pools, the VQP and wr_id tables, meta-plane
  lookups, background RCQP creation with LRU reclaim (§4.3), and
  boot-time broadcast;
* :mod:`repro.krcore.messaging`  -- the module's two-sided kernel messaging
  (§4.4-4.6): kernel receive buffers and the SRQ, receive dispatch, ports,
  control messages and zero-copy landing;
* :mod:`repro.krcore.api`        -- the user-space shim: qconnect / qbind /
  qpop_msgs plus the verbs data-path calls (§4.1, Fig 7).
"""

from repro.krcore.api import KrcoreError, KrcoreLib
from repro.krcore.meta import MetaPlane, MetaServer
from repro.krcore.module import KrcoreModule

__all__ = ["KrcoreError", "KrcoreLib", "KrcoreModule", "MetaPlane", "MetaServer"]

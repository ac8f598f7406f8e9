"""DrTM-KV: an RDMA-enabled key-value store readable by one-sided READs.

The paper deploys DrTM-KV [58] as the backing store of KRCORE's meta
servers (§4.2): values (DCT metadata, MR records) are laid out in RDMA-
registered memory so that clients can look keys up with *two one-sided
READs* -- one for the hash bucket, one for the record -- fully bypassing
the server's CPU.  That CPU-bypass is what gives KRCORE its 11.8x
throughput edge over an RPC-based metadata service (Fig 9a).
"""

from repro.kvs.layout import Layout, RecordTooLargeError, StoreFullError, key_fingerprint
from repro.kvs.store import Catalog, DrtmKvServer
from repro.kvs.client import DrtmKvClient

__all__ = [
    "Catalog",
    "DrtmKvClient",
    "DrtmKvServer",
    "Layout",
    "RecordTooLargeError",
    "StoreFullError",
    "key_fingerprint",
]

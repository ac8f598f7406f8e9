"""Workload generators: YCSB mixes, Zipf key popularity, TPC-C."""

from repro.workloads.zipf import ZipfGenerator
from repro.workloads.ycsb import YcsbWorkload, YCSB_A, YCSB_B, YCSB_C
from repro.workloads.tpcc import TpccLayout, TpccWorkload

__all__ = [
    "TpccLayout",
    "TpccWorkload",
    "YCSB_A",
    "YCSB_B",
    "YCSB_C",
    "YcsbWorkload",
    "ZipfGenerator",
]

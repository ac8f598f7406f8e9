"""Consistency checks for the calibration constants (paper's numbers)."""

from repro.cluster import timing
from repro.sim import US


def test_verbs_control_path_matches_paper():
    # Fig 3a: 15.7 ms client-observed first connection.
    assert timing.VERBS_CONTROL_PATH_NS == 15_700 * US


def test_lite_control_path_near_2ms():
    # Fig 3a / §2.3.2: ~2 ms per connection for optimized LITE.
    assert 1_800 * US <= timing.LITE_CONTROL_PATH_NS <= 2_400 * US


def test_server_qp_setup_rate_near_712_per_sec():
    # Fig 8a's server-side ceiling: the RNIC command processor serializes
    # the hardware part of create_qp and both modify_qp calls per accepted
    # connection (model: ~722 QP/s).
    service_ns = timing.CREATE_QP_HW_NS + timing.MODIFY_RTR_NS + timing.MODIFY_RTS_NS
    rate = 1e9 / service_ns
    assert 650 <= rate <= 780  # paper: 712 QP/s


def test_rc_qp_memory_at_least_159kb():
    # Footnote 3: each QP consumes at least 159 KB.
    assert timing.RC_QP_MEMORY_BYTES >= 159 * 1024


def test_dc_qp_memory_smaller_than_rc():
    assert timing.DC_QP_MEMORY_BYTES < timing.RC_QP_MEMORY_BYTES


def test_krcore_pool_memory_close_to_paper():
    # Fig 15a: 48 DCQPs = ~6.3 MB.
    pool = 48 * timing.DC_QP_MEMORY_BYTES
    assert 5.5e6 <= pool <= 7.5e6


def test_lite_5000_connections_memory_close_to_paper():
    # Fig 15a: 5,000 RCQPs = ~780 MB.
    total = 5_000 * timing.RC_QP_MEMORY_BYTES
    assert 700e6 <= total <= 860e6


def test_read_responder_rate_matches_fig10():
    assert abs(1e9 / timing.READ_RESPONDER_SERVICE_NS - 138e6) / 138e6 < 0.01
    dc = timing.READ_RESPONDER_SERVICE_NS + timing.DC_READ_SERVICE_EXTRA_NS
    assert abs(1e9 / dc - 118e6) / 118e6 < 0.01


def test_write_responder_rate_matches_fig10():
    assert abs(1e9 / timing.WRITE_RESPONDER_SERVICE_NS - 145e6) / 145e6 < 0.01
    dc = timing.WRITE_RESPONDER_SERVICE_NS + timing.DC_WRITE_SERVICE_EXTRA_NS
    assert abs(1e9 / dc - 132e6) / 132e6 < 0.01


def test_two_sided_cpu_rates_match_fig11():
    # 24 cores: verbs 42.3 M/s, KRCORE 33.7 M/s.
    assert abs(24e9 / timing.TWO_SIDED_SERVER_CPU_NS - 42.3e6) / 42.3e6 < 0.01
    assert abs(24e9 / timing.TWO_SIDED_SERVER_CPU_KERNEL_NS - 33.7e6) / 33.7e6 < 0.01


def test_qconnect_uncached_is_5_4_us():
    # Fig 8a: syscall + one meta-server lookup (2 one-sided READs).
    total = timing.SYSCALL_NS + timing.META_KV_READS_PER_LOOKUP * timing.META_KV_READ_RTT_NS
    assert total == 5_400


def test_reg_mr_4mb_close_to_paper():
    # §5.1: registering 4 MB takes 1.4 us.
    assert abs(timing.reg_mr_ns(4 << 20) - 1_400) <= 50


def test_round_to_hw_granularity():
    assert timing.round_to_hw(1) == timing.HW_QUEUE_GRANULARITY
    assert timing.round_to_hw(timing.HW_QUEUE_GRANULARITY) == timing.HW_QUEUE_GRANULARITY
    assert timing.round_to_hw(timing.HW_QUEUE_GRANULARITY + 1) == 2 * timing.HW_QUEUE_GRANULARITY
    # Footnote 3's arithmetic: a default RCQP lands at ~160 KB (">= 159 KB").
    assert timing.round_to_hw(292 * 448) == 131_072
    assert timing.round_to_hw(257 * 64) == 32_768


def test_wire_transfer_rate_is_100gbps():
    # 12.5 GB/s => 1 MB in ~83.9 us.
    assert abs(timing.wire_transfer_ns(1 << 20) - 83_886) <= 100

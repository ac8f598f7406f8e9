"""A TPC-C-lite workload over the FaRM-style transaction substrate.

Fig 1 pairs FaRM-v2 with TPC-C; this module provides a scaled-down
New-Order / Payment mix whose transactions run through
:class:`repro.apps.txn.TxnClient` against passive storage.

Record-id layout (one flat id space, partitioned across storage nodes by
the TxnClient):

    warehouse w                      -> W_BASE + w            (ytd)
    district (w, d)                  -> D_BASE + w*10 + d     (next_o_id, ytd)
    customer (w, d, c)               -> C_BASE + (w*10 + d)*CUSTOMERS + c
                                                              (balance)
    stock (w, i)                     -> S_BASE + w*ITEMS + i  (quantity)
    order slot (w, d, o % ORDER_SLOTS)
                                     -> O_BASE + (w*10 + d)*ORDER_SLOTS + slot

All integers are stored big-endian in the first 8 bytes of the record;
the district packs (next_o_id << 32 | ytd).
"""

import random
import struct

DISTRICTS = 10
CUSTOMERS = 16
ITEMS = 64
ORDER_SLOTS = 64
INITIAL_STOCK = 10_000  # quantity per (warehouse, item)
INITIAL_BALANCE = 1_000_000  # per customer
NEW_ORDER_FRACTION = 0.5  # share of New-Order in the mix, the rest Payment

_U64 = struct.Struct(">Q")


def _u64(raw):
    return _U64.unpack_from(raw)[0]


class TpccLayout:
    """Record-id arithmetic for ``num_warehouses``."""

    def __init__(self, num_warehouses=1):
        self.num_warehouses = num_warehouses
        self.w_base = 0
        self.d_base = self.w_base + num_warehouses
        self.c_base = self.d_base + num_warehouses * DISTRICTS
        self.s_base = self.c_base + num_warehouses * DISTRICTS * CUSTOMERS
        self.o_base = self.s_base + num_warehouses * ITEMS
        self.total_records = self.o_base + num_warehouses * DISTRICTS * ORDER_SLOTS

    def warehouse(self, w):
        return self.w_base + w

    def district(self, w, d):
        return self.d_base + w * DISTRICTS + d

    def customer(self, w, d, c):
        return self.c_base + (w * DISTRICTS + d) * CUSTOMERS + c

    def stock(self, w, item):
        return self.s_base + w * ITEMS + item

    def order_slot(self, w, d, order_id):
        return self.o_base + (w * DISTRICTS + d) * ORDER_SLOTS + order_id % ORDER_SLOTS


class TpccWorkload:
    """Generates and executes the New-Order / Payment mix."""

    def __init__(self, client, layout=None, seed=3):
        self.client = client
        self.layout = layout or TpccLayout()
        self.rng = random.Random(seed)
        self.stats = {"new_order": 0, "payment": 0}

    # -------------------------------------------------------------- loading

    def load(self, storages):
        """Populate initial state locally on the storage nodes.

        ``storages`` must follow the TxnClient's placement: record ``n`` on
        node ``n % len(storages)`` at local id ``n // len(storages)``.
        """
        layout = self.layout

        def put(record_id, value):
            storages[record_id % len(storages)].load(
                record_id // len(storages), _U64.pack(value)
            )

        for w in range(layout.num_warehouses):
            put(layout.warehouse(w), 0)
            for d in range(DISTRICTS):
                put(layout.district(w, d), 1 << 32)  # next_o_id=1, ytd=0
                for c in range(CUSTOMERS):
                    put(layout.customer(w, d, c), INITIAL_BALANCE)
            for item in range(ITEMS):
                put(layout.stock(w, item), INITIAL_STOCK)

    # ------------------------------------------------------------ execution

    def next_transaction(self):
        """Process: run one randomly chosen transaction; returns its kind."""
        if self.rng.random() < NEW_ORDER_FRACTION:
            yield from self.new_order()
            return "new_order"
        yield from self.payment()
        return "payment"

    def new_order(self):
        """Process: the TPC-C New-Order transaction (scaled down)."""
        layout = self.layout
        w = self.rng.randrange(layout.num_warehouses)
        d = self.rng.randrange(DISTRICTS)
        items = self.rng.sample(range(ITEMS), self.rng.randint(1, 4))
        quantities = [self.rng.randint(1, 5) for _ in items]

        def work(txn):
            district_raw = yield from txn.read(layout.district(w, d))
            packed = _u64(district_raw)
            order_id, ytd = packed >> 32, packed & 0xFFFFFFFF
            txn.write(layout.district(w, d), _U64.pack(((order_id + 1) << 32) | ytd))
            for item, quantity in zip(items, quantities):
                stock_raw = yield from txn.read(layout.stock(w, item))
                stock = _u64(stock_raw)
                if stock < quantity:
                    stock += 91  # TPC-C's restock rule
                txn.write(layout.stock(w, item), _U64.pack(stock - quantity))
            txn.write(layout.order_slot(w, d, order_id), _U64.pack(order_id))
            return order_id

        order_id = yield from self.client.run(work)
        self.stats["new_order"] += 1
        return order_id

    def payment(self):
        """Process: the TPC-C Payment transaction (scaled down)."""
        layout = self.layout
        w = self.rng.randrange(layout.num_warehouses)
        d = self.rng.randrange(DISTRICTS)
        c = self.rng.randrange(CUSTOMERS)
        amount = self.rng.randint(1, 50)

        def work(txn):
            warehouse_raw = yield from txn.read(layout.warehouse(w))
            txn.write(layout.warehouse(w), _U64.pack(_u64(warehouse_raw) + amount))
            district_raw = yield from txn.read(layout.district(w, d))
            packed = _u64(district_raw)
            order_id, ytd = packed >> 32, packed & 0xFFFFFFFF
            txn.write(layout.district(w, d), _U64.pack((order_id << 32) | (ytd + amount)))
            customer_raw = yield from txn.read(layout.customer(w, d, c))
            balance = _u64(customer_raw)
            txn.write(layout.customer(w, d, c), _U64.pack(balance - amount))
            return amount

        amount = yield from self.client.run(work)
        self.stats["payment"] += 1
        return amount

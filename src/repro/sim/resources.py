"""Shared-resource primitives: counted resources and FIFO stores."""

from repro.sim.engine import Event, SimulationError


class Resource:
    """A counted resource with FIFO granting (models CPU cores, NIC units).

    Usage inside a process::

        grant = yield resource.acquire()
        try:
            yield service_time
        finally:
            resource.release(grant)
    """

    def __init__(self, sim, capacity):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting = []

    def acquire(self):
        """Return an event that fires (with a grant token) once capacity frees."""
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.trigger(_Grant(self))
        else:
            self._waiting.append(event)
        return event

    def release(self, grant):
        if not isinstance(grant, _Grant) or grant.resource is not self:
            raise SimulationError("release() needs the grant from acquire()")
        if grant.released:
            raise SimulationError("grant released twice")
        grant.released = True
        if self._waiting:
            waiter = self._waiting.pop(0)
            waiter.trigger(_Grant(self))
        else:
            self._in_use -= 1

    def serve(self, service_time):
        """Process helper: acquire, hold for ``service_time`` ns, release."""
        grant = yield self.acquire()
        try:
            yield int(service_time)
        finally:
            self.release(grant)


class _Grant:
    __slots__ = ("resource", "released")

    def __init__(self, resource):
        self.resource = resource
        self.released = False


class Store:
    """An unbounded FIFO channel of items; getters block until an item exists."""

    def __init__(self, sim):
        self.sim = sim
        self._items = []
        self._getters = []

    def put(self, item):
        if self._getters:
            getter = self._getters.pop(0)
            getter.trigger(item)
        else:
            self._items.append(item)

    def get(self):
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self._items:
            event.trigger(self._items.pop(0))
        else:
            self._getters.append(event)
        return event

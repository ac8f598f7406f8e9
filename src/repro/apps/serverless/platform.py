"""The serverless platform: functions, containers, cold/warm starts."""

from repro.sim import MS

#: First launch of a function on a node: pull image, create container.
COLD_START_NS = 250 * MS

#: Warm start: a paused container is resumed (the paper cites SOCK-style
#: techniques [40] reaching ~10 ms).
WARM_START_NS = 10 * MS


class FunctionError(Exception):
    """Invoking an unknown function or a handler failure."""


class _Container:
    __slots__ = ("warm", "runs")

    def __init__(self):
        self.warm = False
        self.runs = 0


class ServerlessPlatform:
    """Schedules function invocations onto cluster nodes.

    Handlers are generator functions ``handler(ctx)`` run as
    simulation processes; ``ctx`` gives them their node and platform.
    """

    def __init__(self, sim):
        self.sim = sim
        self._functions = {}  # name -> (handler, node)
        self._containers = {}  # (name) -> _Container
        self.stats_cold_starts = 0
        self.stats_warm_starts = 0

    def deploy(self, name, handler, node):
        if name in self._functions:
            raise FunctionError(f"function {name!r} already deployed")
        self._functions[name] = (handler, node)
        self._containers[name] = _Container()

    def prewarm(self, name):
        """Mark the function's container warm (pre-provisioned)."""
        self._container(name).warm = True

    def _container(self, name):
        if name not in self._functions:
            raise FunctionError(f"unknown function {name!r}")
        return self._containers[name]

    def invoke(self, name):
        """Process: start the container (cold or warm) and run the handler.

        Returns the handler's return value.
        """
        handler, node = self._functions.get(name, (None, None))
        if handler is None:
            raise FunctionError(f"unknown function {name!r}")
        container = self._container(name)
        if container.warm:
            self.stats_warm_starts += 1
            yield WARM_START_NS
        else:
            self.stats_cold_starts += 1
            yield COLD_START_NS
            container.warm = True
        container.runs += 1
        ctx = InvocationContext(self, node, name)
        return (yield from handler(ctx))


class InvocationContext:
    """What a running function sees: its node, platform, and name."""

    __slots__ = ("platform", "node", "function_name")

    def __init__(self, platform, node, function_name):
        self.platform = platform
        self.node = node
        self.function_name = function_name

    @property
    def sim(self):
        return self.platform.sim

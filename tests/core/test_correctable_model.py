"""The Correctable state machine against a list model.

Random programs of ``update`` / ``close`` / ``fail`` / late ``update`` and
``set_callbacks`` registered before, between and after the transitions —
with callbacks that register further callbacks when they first fire — are
played against :class:`Correctable` and against :class:`_Model`, the
semantics of Figure 3 written with plain lists.  After every step the two
must agree on which callback fired, in which order, with which argument; on
``views()`` / ``preliminary_views()``; on the state and on
``discarded_updates``.  A callback registered after its transition fires
immediately (Promise semantics), and every final/error callback fires at
most once, exactly once if it was registered for the transition that
happened.

A second property plays the completion side — the sink protocol of
:mod:`repro.core.sink`, through which stores and bindings complete a
Correctable — against the same model, with the mapping onto ``update`` /
``close`` / ``fail`` written out here.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.consistency import CAUSAL, STRONG, WEAK
from repro.core.correctable import Correctable
from repro.core.errors import InvalidStateError, OperationError

LEVELS = {"weak": WEAK, "causal": CAUSAL, "strong": STRONG}


class _Model:
    """Figure 3 with lists: the reference the real class is played against."""

    def __init__(self) -> None:
        self.state, self.views, self.error, self.discarded = "updating", [], None, 0
        self.waiting = {"update": [], "final": [], "error": []}

    def preliminary(self) -> List[tuple]:
        return self.views[:-1] if self.state == "final" else list(self.views)

    def set_callbacks(self, on_update=None, on_final=None, on_error=None):
        if on_update is not None:
            self.waiting["update"].append(on_update)
            for view in self.preliminary():
                on_update(view)
        for kind, callback, payload in (("final", on_final, self.views[-1:]),
                                        ("error", on_error, [self.error])):
            if callback is not None and self.state == kind:
                callback(payload[0])
            elif callback is not None:
                self.waiting[kind].append(callback)

    def update(self, value, level, metadata=None) -> None:
        if self.state != "updating":
            self.discarded += 1
            return
        self.views.append((value, level.name, False, metadata or {}))
        for callback in list(self.waiting["update"]):
            callback(self.views[-1])

    def close(self, value, level, metadata=None, is_confirmation=False) -> None:
        self._finish("final", (value, level.name, is_confirmation, metadata or {}))

    def fail(self, error) -> None:
        self._finish("error", error)

    def _finish(self, kind: str, payload: Any) -> None:
        if self.state != "updating":
            raise InvalidStateError(f"already {self.state}")
        self.state = kind
        if kind == "final":
            self.views.append(payload)
        else:
            self.error = payload
        callbacks, self.waiting = self.waiting[kind], {
            "update": [], "final": [], "error": []}
        for callback in callbacks:
            callback(payload)


def _plain(arg: Any) -> Any:
    """A view (real or model) or an error as a comparable value."""
    if isinstance(arg, tuple):
        return arg
    if isinstance(arg, BaseException):
        return (type(arg).__name__, str(arg))
    return (arg.value, arg.consistency.name, arg.is_confirmation, arg.metadata)


class _Player:
    """Runs one program against ``target`` and logs every callback firing."""

    def __init__(self, target: Any) -> None:
        self.target = target
        self.log: List[Tuple[int, str, Any]] = []
        self.registered: List[Tuple[int, str]] = []

    def register(self, spec: Tuple[str, Optional[tuple]]) -> None:
        kinds, nested = spec
        label = len(self.registered)
        pending = [nested] if nested is not None else []

        def callback_for(kind: str):
            def callback(arg: Any) -> None:
                self.log.append((label, kind, _plain(arg)))
                if pending:
                    self.register(pending.pop())
            return callback

        callbacks = {}
        for kind in ("update", "final", "error"):
            if kind[0] in kinds:
                self.registered.append((label, kind))
                callbacks[f"on_{kind}"] = callback_for(kind)
        if not callbacks:
            self.registered.append((label, "none"))
        self.target.set_callbacks(**callbacks)

    def step(self, step: tuple) -> None:
        kind = step[0]
        if kind == "register":
            self.register(step[1])
            return
        try:
            if kind == "update":
                self.target.update(step[1], LEVELS[step[2]],
                                   metadata=step[3])
            elif kind == "close":
                self.target.close(step[1], STRONG, metadata=step[2],
                                  is_confirmation=step[3])
            else:
                self.target.fail(step[1])
        except InvalidStateError:
            self.log.append((-1, "invalid", kind))


def _observe(target: Any) -> tuple:
    if isinstance(target, _Model):
        return (target.state, tuple(target.views),
                tuple(target.preliminary()), target.discarded,
                target.error and _plain(target.error))
    return (target.state.value, tuple(_plain(v) for v in target.views()),
            tuple(_plain(v) for v in target.preliminary_views()),
            target.discarded_updates, target.error and _plain(target.error))


_values = st.integers(min_value=0, max_value=3)
_metadata = st.one_of(st.none(), st.just({}),
                      st.fixed_dictionaries({"latency_ms": st.floats(0, 9)}))
_kinds = st.sets(st.sampled_from("ufe")).map(lambda s: "".join(sorted(s)))
_registration = st.recursive(
    st.tuples(_kinds, st.none()),
    lambda inner: st.tuples(_kinds, st.one_of(st.none(), inner)),
    max_leaves=3)
_errors = st.sampled_from([OperationError("boom"), OperationError("again")])
_steps = st.one_of(
    st.tuples(st.just("update"), _values, st.sampled_from(["weak", "causal"]),
              _metadata),
    st.tuples(st.just("close"), _values, _metadata, st.booleans()),
    st.tuples(st.just("fail"), _errors),
    st.tuples(st.just("register"), _registration),
)


@settings(max_examples=400, deadline=None)
@given(program=st.lists(_steps, max_size=14))
def test_correctable_matches_the_list_model(program):
    real, model = _Player(Correctable()), _Player(_Model())
    for step in program:
        real.step(step)
        model.step(step)
        assert real.log == model.log, step
        assert _observe(real.target) == _observe(model.target), step
    assert real.registered == model.registered

    # Exactly one final or error, and only for the transition that happened.
    state = real.target.state.value
    fired = [(label, kind) for label, kind, _ in real.log
             if kind in ("final", "error")]
    assert len(fired) == len(set(fired)), "a closing callback fired twice"
    assert all(kind == state for _, kind in fired)
    if state != "updating":
        expected = {entry for entry in real.registered if entry[1] == state}
        assert set(fired) == expected
        # Late registration fires immediately, never again.
        before = len(real.log)
        real.register((state[0], None))
        assert [kind for _, kind, _ in real.log[before:]] == [state]
        views = real.target.views()
        assert real.target.views() is views
        assert real.target.update("late", WEAK) is None
        assert real.target.views() is views


# -- the completion side ------------------------------------------------------

def _complete_model(model: _Model, levels: tuple, step: tuple) -> None:
    """What a sink step means, in terms of the three transitions."""
    kind, updating = step[0], model.state == "updating"
    if kind == "preliminary":
        metadata = {"latency_ms": step[3], "preliminary": True}
        if len(levels) > 1:
            model.update(step[1], levels[0], metadata)
        elif updating:
            model.close(step[1], levels[0], metadata)
    elif kind == "final" and updating:
        _, value, _, latency_ms, is_confirmation, degraded = step
        model.close(value, levels[-1],
                    {"latency_ms": latency_ms, "preliminary": False,
                     "degraded": degraded}, is_confirmation=is_confirmation)
    elif kind == "error" and updating:
        error = step[1]
        model.fail(error if isinstance(error, BaseException)
                   else OperationError(error))


def _complete_real(real: Correctable, step: tuple) -> None:
    getattr(real, f"deliver_{step[0]}")(*step[1:])


_latency = st.floats(min_value=0, max_value=90)
_stamps = st.one_of(st.none(), st.tuples(_latency, st.just("replica"),
                                         st.integers(0, 3)))
_sink_steps = st.one_of(
    st.tuples(st.just("preliminary"), _values, _stamps, _latency),
    st.tuples(st.just("final"), _values, _stamps, _latency, st.booleans(),
              st.booleans()),
    # A message becomes an OperationError; an exception is raised as is.
    st.tuples(st.just("error"),
              st.one_of(st.sampled_from(["NoNode: /q", "timeout"]), _errors),
              _latency),
    st.tuples(st.just("register"), _registration),
)


@settings(max_examples=400, deadline=None)
@given(levels=st.sampled_from([(WEAK, STRONG), (WEAK, CAUSAL, STRONG),
                               (WEAK,), (STRONG,)]),
       program=st.lists(_sink_steps, max_size=10))
def test_completion_methods_match_the_list_model(levels, program):
    real = _Player(Correctable(levels=levels))
    model = _Player(_Model())
    for step in program:
        if step[0] == "register":
            real.step(step)
            model.step(step)
        else:
            _complete_real(real.target, step)
            _complete_model(model.target, levels, step)
        assert real.log == model.log, step
        assert _observe(real.target) == _observe(model.target), step
    finals = [kind for _, kind, _ in real.log if kind in ("final", "error")]
    assert len(set(finals)) <= 1, "both a final and an error were delivered"


def test_views_are_stamped_by_the_clock_at_delivery():
    """The non-random corners the model does not time: timestamps come from
    the clock at delivery, metadata defaults to a fresh dict per view."""
    now = [1.0]
    c = Correctable(clock=lambda: now[0])
    first = c.update("a", WEAK)
    now[0] = 2.5
    last = c.close("b", STRONG)
    assert (first.timestamp, last.timestamp) == (1.0, 2.5)
    assert first.metadata == {} and first.metadata is not last.metadata
    assert c.views() == (first, last) and c.preliminary_views() == (first,)

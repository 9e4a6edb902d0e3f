"""Tests for the listener mix-in."""

import pytest

from repro.util.listenable import Listenable


class TestRegistration:
    def test_listeners_called_in_registration_order(self):
        source = Listenable()
        calls = []
        source.add_listener(lambda: calls.append("first"))
        source.add_listener(lambda: calls.append("second"))
        source.notify()
        assert calls == ["first", "second"]

    def test_duplicate_registration_ignored(self):
        source = Listenable()
        calls = []
        listener = lambda: calls.append(1)  # noqa: E731
        source.add_listener(listener)
        source.add_listener(listener)
        source.notify()
        assert calls == [1]

    def test_listeners_property_is_snapshot(self):
        source = Listenable()
        listener = lambda: None  # noqa: E731
        source.add_listener(listener)
        snapshot = source.listeners
        later = lambda: None  # noqa: E731
        source.add_listener(later)
        assert listener in snapshot
        assert later not in snapshot


class TestNotification:
    def test_arguments_forwarded(self):
        source = Listenable()
        received = []
        source.add_listener(lambda *args, **kwargs: received.append((args, kwargs)))
        source.notify(1, 2, key="value")
        assert received == [((1, 2), {"key": "value"})]

    def test_failing_listener_does_not_block_others(self):
        source = Listenable()
        calls = []

        def bad():
            raise RuntimeError("listener failed")

        source.add_listener(bad)
        source.add_listener(lambda: calls.append("ran"))
        with pytest.raises(RuntimeError, match="listener failed"):
            source.notify()
        assert calls == ["ran"]

    def test_first_exception_is_reraised(self):
        source = Listenable()

        def first():
            raise ValueError("first")

        def second():
            raise RuntimeError("second")

        source.add_listener(first)
        source.add_listener(second)
        with pytest.raises(ValueError, match="first"):
            source.notify()

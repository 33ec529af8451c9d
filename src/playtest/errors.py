"""Exception types shared across the package."""


class PlaytestError(Exception):
    """Base class for every domain error raised by this package."""


# --- tuning files ---

class TuningSyntaxError(PlaytestError):
    """Malformed tuning document (bad JSON); message carries line/column."""


class SchemaError(PlaytestError):
    """Structurally valid JSON that does not match the tuning schema."""


class DanglingReference(PlaytestError):
    """An identifier referenced somewhere does not resolve to a declared entity."""

    def __init__(self, site: str, ref: str):
        super().__init__(f"{site} references unknown id {ref!r}")
        self.site = site
        self.ref = ref


class InvariantViolation(PlaytestError):
    """A declared tuning rule does not hold (named in the message)."""


class UnknownEvent(PlaytestError):
    pass


class UnknownCareer(PlaytestError):
    pass


# --- simulation ---

class IllegalAction(PlaytestError):
    """An action was applied that is not currently legal (planner bug)."""


class ClockRegression(PlaytestError):
    """Attempt to advance the clock backwards."""


class Deadlock(PlaytestError):
    """No action can ever become legal from this state."""


# --- experiments ---

class SuiteEntryError(PlaytestError):
    """A suite entry, or one of its fields (<id>.<field>), has the wrong JSON
    type, misses a required field, has one its kind does not read, or holds
    a value its checks reject."""


class NoRelationshipEvents(PlaytestError):
    pass

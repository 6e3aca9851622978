"""Exception hierarchy shared by all flexbid modules."""


class FlexbidError(Exception):
    """Base class for all toolkit errors."""


# --- data ingestion ---------------------------------------------------------

class SchemaError(FlexbidError):
    """A file violates its expected schema (message carries file/line/column)."""


class GridMismatch(FlexbidError):
    """Time series disagree on the (date, hour) grid, or a day is incomplete."""


class DanglingReference(FlexbidError):
    """An id referenced in one file does not resolve in another."""


# --- thermal / dispatch -----------------------------------------------------

class InfeasibleBaseline(FlexbidError):
    """Rated heat-pump power cannot hold the set-point temperature."""


class Infeasible(FlexbidError):
    """An optimization problem has no feasible solution."""


class SolverFailure(FlexbidError):
    """The LP/MILP solver failed for a reason other than infeasibility."""


# --- scenarios --------------------------------------------------------------

class InsufficientHistory(FlexbidError):
    """Not enough price history to produce the requested forecast/scenarios."""


# --- bidding ----------------------------------------------------------------

class TooManyBids(FlexbidError):
    """Distinct bid profiles exceed the exclusive group's bid cap."""


class EmptyInput(FlexbidError):
    """No scenarios or no resources were supplied to the bid builder."""


class AlphaOutOfRange(FlexbidError):
    """An acceptance rate lies outside [0, 1] or the rates sum above one."""


# --- clearing ---------------------------------------------------------------

class LengthMismatch(FlexbidError):
    """Bid profiles and the price vector, or a pinned schedule and the
    dispatch horizon, differ in length."""


class GroupTooLarge(FlexbidError):
    """The enumeration oracle refuses groups above its size limit."""


# --- grid -------------------------------------------------------------------

class CycleDetected(FlexbidError):
    """The line set contains a cycle; the network is not radial."""


class DisconnectedNode(FlexbidError):
    """A node cannot reach any substation."""


class MultipleAncestors(FlexbidError):
    """A node has more than one upstream line (or a substation has one)."""


# --- benchmark --------------------------------------------------------------

class InvalidOrdering(FlexbidError):
    """Benchmark costs violate tc_opt <= tc_inf."""

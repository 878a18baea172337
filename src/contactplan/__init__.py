"""Quasi-static contact-implicit motion planning for a planar dual-arm robot.

The planner finds joint displacements and environment-support forces through
a relaxed complementarity NLP solved by SQP, keeps the zero-moment point in
a safe region while a heavy bar is moved through glovebox ports, and
computes prioritized joint torques that realize the support forces first.
"""

from .errors import ContactPlanError
from .planner import plan_path
from .scenario import default_scenario, load_scenario

__version__ = "0.1.0"

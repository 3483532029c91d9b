"""Fault injection: declarative plans applied to the live simulation."""

from repro.faults.control import ControlPlaneState
from repro.faults.elastic import ElasticCluster
from repro.faults.injector import FaultInjector
from repro.faults.network_state import NetworkFaultState
from repro.faults.plan import (
    CONTROL_FAULT_KINDS,
    ELASTIC_FAULT_KINDS,
    FAULT_KINDS,
    KIND_TO_KNOB,
    NETWORK_FAULT_KINDS,
    Fault,
    FaultPlan,
    generate_fault_plan,
    plan_from_json,
    plan_to_json,
)

__all__ = [
    "CONTROL_FAULT_KINDS",
    "ELASTIC_FAULT_KINDS",
    "FAULT_KINDS",
    "KIND_TO_KNOB",
    "NETWORK_FAULT_KINDS",
    "ControlPlaneState",
    "ElasticCluster",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "NetworkFaultState",
    "generate_fault_plan",
    "plan_from_json",
    "plan_to_json",
]

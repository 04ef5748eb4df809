import inspect

from sortcycles import dynamics, firms, statics, verify

#: argument names of solved objects, and of the inputs they were solved with
SOLVED = {"eq", "policy"}
INPUTS = {"params", "shock", "chain"}

#: functions allowed to take both, with the reason
EXCEPTIONS = {
    "sortcycles.dynamics.euler_residuals":
        "perfbench/run.py calls euler_residuals(policy, params, points, states); "
        "it raises DomainError unless params is policy.params",
}


def takes_a_solved_object_and_its_inputs() -> list[str]:
    found = []
    for module in (statics, firms, dynamics, verify):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__:
                continue  # imported from another module; checked there
            names = set(inspect.signature(fn).parameters)
            if names & SOLVED and names & INPUTS:
                found.append(f"{module.__name__}.{name}")
    return found


class TestSignatures:
    def test_solved_objects_are_the_only_source_of_their_inputs(self):
        # a function handed eq or policy reads params, shock and chain from
        # it; a second copy as an argument could disagree with no error
        offenders = [name for name in takes_a_solved_object_and_its_inputs()
                     if name not in EXCEPTIONS]
        assert offenders == [], "take a solved object and its inputs: " + ", ".join(offenders)

    def test_every_exception_is_still_in_use(self):
        assert set(EXCEPTIONS) <= set(takes_a_solved_object_and_its_inputs())

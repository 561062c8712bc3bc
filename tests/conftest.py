import pytest

from nilcomplex import catalogue, charts


@pytest.fixture
def check_domain_calls(monkeypatch):
    """The names of the members whose check_domain runs from now on; the
    cached chart points are dropped first."""
    charts._chart_at.cache_clear()
    calls = []
    check_domain = catalogue.MatrixFamily.check_domain

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return check_domain(self, *args, **kwargs)

    monkeypatch.setattr(catalogue.MatrixFamily, "check_domain", counted)
    return calls

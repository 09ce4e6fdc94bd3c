module sink_mod
  real(kind=8) :: gs = 0.25d0
  real(kind=8) :: garr(0:5)
  integer :: gcount = 0
contains
  function poly(x, n) result(y)
    real(kind=8) :: x, y
    integer :: n
    integer :: k
    y = 0.0d0
    do k = 0, n
      y = y * x + 1.0d0 / (k + 1)
    end do
  end function poly

  function ipick(a, b) result(c)
    integer :: a, b, c
    c = max(a, b) - min(a, b) + mod(a + 7, 3) + a ** 2 / (b + 1)
  end function ipick

  subroutine bump(v, w, n)
    real(kind=8), intent(inout) :: v
    real(kind=8), intent(inout) :: w(n)
    integer, intent(in) :: n
    integer :: i
    real(kind=8) :: tmp(n)
    gcount = gcount + 1
    tmp = 0.5d0
    do i = 1, n
      tmp(i) = tmp(i) + w(i) * gs
      if (tmp(i) > 4.0d0) then
        cycle
      end if
      w(i) = tmp(i) - sqrt(abs(w(i))) + sign(1.0d0, -w(i))
    end do
    v = v + sum(w) / n + maxval(w) - minval(w)
    if (v > 1.0d6) then
      return
    end if
    v = v * 0.5d0
  end subroutine bump

  subroutine fill(a, m, n)
    real(kind=8), intent(out) :: a(m, n)
    integer, intent(in) :: m, n
    integer :: i, j
    do j = 1, n
      do i = 1, m
        a(i, j) = real(i, 8) * 0.1d0 + real(j) - atan2(real(i, 8), 2.0d0 * j)
      end do
    end do
  end subroutine fill
end module sink_mod

program main
  use sink_mod
  implicit none
  real(kind=8) :: x, y, z, s, t
  real(kind=8) :: u(6), m2(3, 4)
  real(kind=8), allocatable :: dyn(:)
  integer :: i, j, k, n, iv(5)
  logical :: flag
  n = 6
  x = 1.5d0
  y = 2.0d0 ** 3 + x ** 2.5d0 + x ** (-2) + 2 ** 10 + 1.0d0 / 3.0d0
  z = tanh(x) + exp(-x) + log(x) + log10(x) + sin(x) + cos(x) + tan(x * 0.1d0) + atan(x)
  s = floor(x * 3.3d0) + nint(-x) + int(7.9d0) + int(x) + mod(7.5d0, 2.0d0)
  t = dble(sngl(x)) + real(3, 8) + epsilon(x) * 1.0d10 + tiny(x) * huge(x)
  flag = isnan(x) .or. (x > y .and. .not. (z < s))
  if (flag) then
    t = t + 1.0d0
  else if (x >= 1.5d0) then
    t = t - 1.0d0
  else
    t = -t
  end if
  do i = 1, n
    u(i) = poly(x + 0.01d0 * i, 4) - i
  end do
  garr = gs
  garr(0) = -1.0d0
  k = 0
  do while (k < 100)
    k = k + 1
    if (mod(k, 3) == 0) then
      cycle
    end if
    if (k > 20) then
      exit
    end if
    x = x + 0.01d0 * k - u(mod(k, n) + 1) * 1.0d-3
  end do
  do i = 1, 3
    call bump(x, u, n)
    call bump(garr(i), u, 2)
  end do
  call fill(m2, 3, 4)
  allocate(dyn(size(m2, 2) + 1))
  dyn = 2.0d0
  dyn(2) = m2(2, 3) + size(m2)
  do i = 1, 5
    iv(i) = ipick(i, 5 - i) + i * 3 / 2 - (-i)
  end do
  j = 0
  do i = 10, 1, -3
    j = j + iv(mod(i, 5) + 1)
  end do
  z = z + sum(dyn) + j
  deallocate(dyn)
  call mpi_allreduce_sum(x * 2.0d0, s)
  call mpi_allreduce_max(y, u(2))
  print *, 'sink', j, x, flag, .true.
  call prose_record('x', x)
  call prose_record('y', y)
  call prose_record('z', z)
  call prose_record('s', s)
  call prose_record('t', t)
  call prose_record('j', 1.0d0 * j + gcount)
  call prose_record_array('u', u)
  call prose_record_array('garr', garr)
  call prose_record_array('m2', m2)
  call prose_record_array('iv', iv)
end program main

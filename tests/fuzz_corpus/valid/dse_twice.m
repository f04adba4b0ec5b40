function y = dse_twice(m)
  % The product is overwritten before it is read.
  y = m * m';
  y = m + m;
end
